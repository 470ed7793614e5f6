import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgctrl import cli, control_lab
from cfgctrl.cli import _csv, main
from cfgctrl.config import ConfigError, config_from_dict
from cfgctrl.guidance import CONTROLLERS

from conftest import REFERENCE_CONFIG


def reference_config(tmp_path: Path, **tweaks) -> Path:
    """configs/reference.json with each ``block`` or ``block.field`` tweak set, written to tmp_path/config.json."""
    raw = json.loads(REFERENCE_CONFIG.read_text())
    for key, value in tweaks.items():
        block, _, field = key.partition(".")
        if field:
            raw[block][field] = value
        else:
            raw[block] = value
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def small_config(tmp_path: Path, **tweaks) -> Path:
    """The reference config at 10 trajectories and 24 steps, with ``tweaks``."""
    return reference_config(tmp_path, **{"sampler.trajectories": 10, "sampler.steps": 24, **tweaks})


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


# each way an --out can be unwritable, and the start of the one-line error that names it
BLOCKED_OUT = {
    "file": "output directory ",  # --out names a file
    "under_file": "output directory ",  # a path under a file
    "directory_at_an_artifact": "output file ",  # a directory stands where one of the command's files goes
    "name_too_long": "output path ",  # a 300-character name, which the system refuses to look up
    "nul": "--out: must hold no NUL character",  # which no path holds
}


def assert_out_refused(tmp_path, capsys, blocked, *argv):
    """With --out blocked as ``BLOCKED_OUT[blocked]`` says, the command exits 2 naming it and leaves the tree as it
    was."""
    blocker = tmp_path / "taken"
    blocker.write_text("a file\n")
    out = {"file": blocker, "under_file": blocker / "sub", "directory_at_an_artifact": tmp_path / "o",
           "name_too_long": tmp_path / ("x" * 300), "nul": f"{tmp_path}/o\0ut"}[blocked]
    if blocked == "directory_at_an_artifact":
        assert run_cli(*argv, "--out", out) == 0
        artifact = min(out.iterdir())
        artifact.unlink()
        artifact.mkdir()
        capsys.readouterr()
    before = sorted(tmp_path.rglob("*"))
    assert run_cli(*argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: " + BLOCKED_OUT[blocked])
    assert blocked == "nul" or str(out) in err
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "a file\n"


class TestRun:
    def test_smoke_writes_outputs(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("run", "--config", cfg, "--out", out) == 0
        files = sorted(p.name for p in out.iterdir())
        assert any(f.endswith("_traces.csv") for f in files)
        assert any(f.endswith("_report.json") for f in files)
        assert any(f.endswith("_e_norm.svg") for f in files)
        assert any(f.endswith("_phase.svg") for f in files)

    def test_report_fields_fixed(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        run_cli("run", "--config", cfg, "--out", out)
        report_path = next(out.glob("run_*_report.json"))
        report = json.loads(report_path.read_text())
        assert list(report.keys()) == ["w2", "alignment", "oversaturation", "e_decay_ratio", "n_divergent"]

    def test_unknown_controller_exits_2_naming_field(self, tmp_path, capsys):
        cfg = small_config(tmp_path, **{"controller.type": "pid"})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "controller.type" in capsys.readouterr().err

    def test_nan_component_mean_exits_2_naming_field(self, tmp_path, capsys):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["system"]["components"][0]["mean"][0] = float("nan")
        cfg = tmp_path / "nan.json"
        cfg.write_text(json.dumps(raw))  # json writes the NaN token
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "system.components[0].mean: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("formats, message", [
        ("xml", "--format: unknown format 'xml'"),
        (",", "--format: must be a nonempty list"),
    ])
    def test_bad_format_exits_2_naming_flag(self, tmp_path, capsys, formats, message):
        cfg = small_config(tmp_path)
        assert run_cli("run", "--config", cfg, "--format", formats, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                                         b'{"sampler": {"steps": 1' + b"0" * 4999 + b"}}"],
                             ids=["absent", "not_utf8", "nested_100k_deep", "steps_of_5000_digits"])
    def test_missing_config_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.json"
        if content is not None:
            path.write_bytes(content)
        assert run_cli("run", "--config", path) == 2
        assert str(path) in capsys.readouterr().err

    def test_divergent_only_batch_exits_3(self, tmp_path):
        cfg = small_config(tmp_path, **{"controller.w": 1e5, "controller.k": 1e3})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3

    @pytest.mark.parametrize("trajectories", [1, 2])
    def test_too_few_survivors_exit_3_without_artifacts(self, tmp_path, capsys, trajectories):
        cfg = small_config(tmp_path, **{"sampler.trajectories": trajectories})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"need at least 3 non-divergent samples, got {trajectories}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blocked", BLOCKED_OUT)
    def test_out_blocked_by_a_file_exits_2(self, tmp_path, capsys, blocked):
        assert_out_refused(tmp_path, capsys, blocked, "run", "--config", REFERENCE_CONFIG)

    def test_rectified_power_past_the_floats_exits_3(self, tmp_path, capsys):
        # tau**gamma at tau = 1e-4 and gamma = -80 is past the floats: every row is flagged, nothing is written
        cfg = reference_config(tmp_path, controller={"type": "rectified_cfgpp", "w": 5.0, "gamma": -80})
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == 3
        assert re.fullmatch(r"run [0-9a-f]{12}: every trajectory diverged\n", capsys.readouterr().err)
        assert not out.exists()

    def test_rectified_midpoint_past_the_floats_exits_3(self, tmp_path, capsys):
        # means at +-1e200 overflow every row's velocity, so rectified_cfgpp's midpoint is not finite: its rows are
        # flagged, as cfg's and smc's are
        components = json.loads(REFERENCE_CONFIG.read_text())["system"]["components"]
        far = [{**c, "mean": [sign * 1e200, 0.0]} for c, sign in zip(components, (1, -1))]
        cfg = reference_config(tmp_path, controller={"type": "rectified_cfgpp", "w": 5.0}, **{"system.components": far})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 3
        assert re.fullmatch(r"run [0-9a-f]{12}: every trajectory diverged\n", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()
        out = tmp_path / "c"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,smc,rectified_cfgpp", "--out", out) == 0
        rows = json.loads(next(out.glob("compare_*_report.json")).read_text())["rows"]
        assert [row["status"] for row in rows] == ["failed: every trajectory diverged"] * 3

    # systems whose report once warned of an overflow: each value is finite, or the run exits 3 naming one that is not
    FAR_REPORTS = {
        "far_component": ({"1.mean": [1e200, 0.0]}, None),  # its density at the samples underflows to 0
        "tiny_variance": ({"0.cov": {"diag": [5e-324, 5e-324]}}, None),  # distances near 1e160, whose squares overflow
        "rounded_variance": ({"0.cov": {"full_lower": [[1e-300], [5e-51, 1e200]]}},
                             "the report's alignment is not finite"),
        "wide_target": ({"0.weight": 1.0 - 1e-6, "1.weight": 1e-6, "0.cov": {"diag": [1e8, 1e8]},
                         "1.mean": [1.3e154, 0.0], "conditions": {"right": [0, 1], "left": [1]}},
                        "the report's w2 is not finite"),
        "target_moments": ({"0.weight": 1.0 - 1e-6, "1.weight": 1e-6, "1.mean": [1e160, 0.0],
                            "conditions": {"right": [0, 1], "left": [1]}},
                           "the covariance of condition 'right' is not finite"),
    }

    @pytest.mark.parametrize("edits, message", FAR_REPORTS.values(), ids=FAR_REPORTS)
    def test_report_past_the_floats_exits_3(self, tmp_path, capsys, edits, message):
        system = json.loads(REFERENCE_CONFIG.read_text())["system"]
        for key, value in edits.items():
            i, _, field = key.partition(".")
            if field:
                system["components"][int(i)][field] = value
            else:
                system[key] = value
        cfg = reference_config(tmp_path, controller={"type": "cfg", "w": 5.0}, system=system)
        out = tmp_path / "o"
        assert run_cli("run", "--config", cfg, "--out", out) == (0 if message is None else 3)
        err = capsys.readouterr().err
        if message is None:
            assert err == "" and out.exists()
        else:
            assert re.fullmatch(rf"run [0-9a-f]{{12}}: {re.escape(message)}\n", err) and not out.exists()

    @pytest.mark.parametrize("clamp", [6e-17, 1e-17, 1e-300])
    def test_heun_reaching_tau_1_exits_2(self, tmp_path, capsys, clamp):
        cfg = reference_config(tmp_path, **{"sampler.scheme": "heun", "sampler.tau_clamp": clamp})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == ("config error: sampler.tau_clamp: too small for heun at 64 steps: "
                                           "the last corrector stage reaches tau = 1\n")
        assert not (tmp_path / "o").exists()
        ok = reference_config(tmp_path, **{"sampler.scheme": "heun", "sampler.tau_clamp": 5e-17})
        assert run_cli("run", "--config", ok, "--out", tmp_path / "o", "--format", "json") == 0

    @pytest.mark.parametrize("key, value", [("steps", 10**400), ("trajectories", 2**63)],
                             ids=["steps=10**400", "trajectories=2**63"])
    def test_size_past_numpy_dimensions_exits_2(self, tmp_path, capsys, key, value):
        # a traceback and exit 1 before: an OverflowError from dtau, or numpy's "Maximum allowed dimension exceeded"
        cfg = reference_config(tmp_path, **{f"sampler.{key}": value})
        assert run_cli("run", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: sampler.{key}: must be at most {np.iinfo(np.intp).max}\n"
        assert not (tmp_path / "o").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("run", "--config", cfg, "--out", out1)
        run_cli("run", "--config", cfg, "--out", out2)
        names1 = sorted(p.name for p in out1.iterdir())
        names2 = sorted(p.name for p in out2.iterdir())
        assert names1 == names2
        for name in names1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_svg_valid_xml_without_external_refs(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        run_cli("run", "--config", cfg, "--out", out)
        for svg in out.glob("*.svg"):
            text = svg.read_text()
            root = ET.fromstring(text)
            assert root.tag.endswith("svg")
            assert "http://" not in text.replace("http://www.w3.org/2000/svg", "")
            assert "href" not in text


class TestSweep:
    def test_lambda_ablation_rows(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"parameter": "lambda", "values": [3.0, 4.0, 5.0, 6.0]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        table = next(out.glob("sweep_*_table.csv")).read_text().strip().split("\n")
        assert len(table) == 5
        assert table[0].startswith("value,status,w2,alignment,oversaturation")
        assert [row.split(",")[0] for row in table[1:]] == ["3.0", "4.0", "5.0", "6.0"]

    def test_switch_gain_ablation_rows(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"parameter": "k", "values": [0.1, 0.4, 0.7, 1.0]})
        cfg_raw = json.loads(cfg.read_text())
        cfg_raw["controller"]["lambda"] = 5.0
        cfg.write_text(json.dumps(cfg_raw))
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        table = next(out.glob("sweep_*_table.csv")).read_text().strip().split("\n")
        assert len(table) == 5

    def test_scale_sweep_tables_overlay(self, tmp_path):
        # same sweep values under cfg and smc produce row-aligned tables
        values = [1.0, 2.0, 5.0, 10.0, 15.0]
        tables = {}
        for name, controller in {
            "cfg": {"type": "cfg", "w": 5.0},
            "smc": {"type": "smc", "w": 5.0, "lambda": 6.0, "k": 0.1},
        }.items():
            cfg = small_config(
                tmp_path / name,
                **{"controller": controller, "sweep": {"parameter": "w", "values": values}},
            )
            out = tmp_path / name / "out"
            assert run_cli("sweep", "--config", cfg, "--out", out) == 0
            rows = next(out.glob("sweep_*_table.csv")).read_text().strip().split("\n")[1:]
            tables[name] = [row.split(",") for row in rows]
        assert [r[0] for r in tables["cfg"]] == [r[0] for r in tables["smc"]]
        assert all(r[1] == "ok" for rows in tables.values() for r in rows)

    def test_infinite_sweep_value_exits_2_naming_field(self, tmp_path, capsys):
        cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [1.0, float("inf")]})
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "sweep.values: must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_without_block_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
        assert "sweep: block missing from config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_row_marked_sweep_continues(self, tmp_path):
        cfg = small_config(tmp_path, sweep={"parameter": "k", "values": [0.1, 1e9]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        rows = list(csv.reader(next(out.glob("sweep_*_table.csv")).read_text().splitlines()))[1:]
        statuses = [row[1] for row in rows]
        assert statuses[0] == "ok"
        assert statuses[1].startswith("failed")


    def test_too_few_survivors_fail_every_value(self, tmp_path):
        cfg = small_config(tmp_path, **{"sampler.trajectories": 2, "sweep": {"parameter": "w", "values": [2.0, 5.0]}})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 0
        rows = json.loads(next(out.glob("sweep_*_table.json")).read_text())["rows"]
        assert [r["status"] for r in rows] == ["failed: need at least 3 non-divergent samples, got 2"] * 2

    def test_raising_law_fails_only_its_row(self, tmp_path, capsys):
        # a value whose law would refuse its gain is refused at parse, with the rest of its list
        cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [2.0, -1.0, 5.0]})
        out = tmp_path / "out"
        assert run_cli("sweep", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == "config error: sweep.values: guidance scale must be nonnegative\n"
        assert not out.exists()

    @pytest.mark.parametrize("parameter, values, message", [
        ("w", [-1.0], "guidance scale must be nonnegative"),
        ("k", [-0.5], "must be nonnegative"),
        ("lambda", [0.0], "must be positive"),
        ("w", [2, -1], "guidance scale must be nonnegative"),
    ], ids=lambda v: ",".join(map(str, v)) if isinstance(v, list) else None)
    def test_out_of_bound_value_exits_2_naming_field(self, tmp_path, capsys, parameter, values, message):
        cfg = reference_config(tmp_path, sweep={"parameter": parameter, "values": values})
        assert run_cli("sweep", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"config error: sweep.values: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["run"], ["compare", "--controllers", "cfg,smc"], ["sweep"]],
                             ids=["run", "compare", "sweep"])
    def test_system_failure_fails_every_row(self, tmp_path, capsys, command):
        # no system can be built: run, compare and the sweep, whose rows all share it, exit 2 naming the field
        cfg = reference_config(tmp_path, sweep={"parameter": "w", "values": [2, 5]})
        raw = json.loads(cfg.read_text())
        raw["system"]["components"][1]["cov"] = {"full_lower": [[1.0], [2.0, 1.0]]}  # not positive definite
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert run_cli(command[0], "--config", cfg, *command[1:], "--out", out) == 2
        assert capsys.readouterr().err == "config error: system.components[1].cov: must be positive definite\n"
        assert not out.exists()


ALL_SIX = "cfg,weight_schedule,apg,cfg_zero_star,rectified_cfgpp,smc"


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_one_lockstep_pass_per_command(tmp_path, monkeypatch, command):
    import cfgctrl.sampler

    real = cfgctrl.sampler._integrate_rows
    laws_and_blocks_per_call = []

    def counting(system, laws, *args, parts=1):
        laws_and_blocks_per_call.append((len(laws), len(laws) * parts))
        return real(system, laws, *args, parts=parts)

    monkeypatch.setattr(cfgctrl.sampler, "_integrate_rows", counting)
    cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [1.0, 2.0, 5.0, 10.0, 15.0]})
    argv = {"run": ["run"], "compare": ["compare", "--controllers", ALL_SIX], "sweep": ["sweep"]}[command]
    assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 0
    # a sweep steps one law, its gain a per-row column, over one block per value
    assert laws_and_blocks_per_call == [{"run": (1, 1), "compare": (6, 6), "sweep": (1, 5)}[command]]


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_flow_system_is_built_once(tmp_path, monkeypatch, command):
    import cfgctrl.config

    real = cfgctrl.config.build_system
    calls = []
    monkeypatch.setattr(cfgctrl.config, "build_system", lambda spec: calls.append(1) or real(spec))
    cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [1.0, 2.0, 5.0]})
    argv = {"run": ["run"], "compare": ["compare", "--controllers", ALL_SIX], "sweep": ["sweep"]}[command]
    assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 0
    assert len(calls) == 1  # in the sampler; the report reads RunResult.system


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
def test_each_block_builds_its_object_once(tmp_path, monkeypatch, command):
    from cfgctrl.flow_systems import FlowSystem
    from cfgctrl.guidance import ControlLaw

    built = []
    for cls, method in ((FlowSystem, "__init__"), (ControlLaw, "__post_init__")):
        real = getattr(cls, method)
        monkeypatch.setattr(cls, method, lambda self, *a, real=real, **kw: built.append(type(self)) or real(self, *a, **kw))
    cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [1.0, 2.0, 5.0]})
    argv = {"run": ["run"], "compare": ["compare", "--controllers", ALL_SIX], "sweep": ["sweep"]}[command]
    assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 0
    # the config's system, then a law per controller block: the config's, each other compared type's, each swept
    # value's; a sweep's laws step as one more, its gain a per-row column
    laws = {"run": 1, "compare": 6, "sweep": 1 + 3 + 1}[command]
    assert built == [FlowSystem] + [ControlLaw] * laws


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    """An argparse refusal, a config error, a synth run and a run do in one process what each does with a fresh parser."""
    cfg = small_config(tmp_path)
    calls = [
        ["synth", "--steps", "abc", "--out", "out"],
        ["synth", "--steps", "0", "--out", "out"],
        ["synth", "--dim", "4", "--rho", "0.5", "--gain-deviation", "seeded", "--steps", "300", "--out", "out"],
        ["run", "--config", str(cfg), "--out", "out"],
    ]
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())

    def outcomes(cwd, fresh):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        cli._parser.cache_clear()
        seen = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            seen.append((code, *capsys.readouterr()))
        return seen, {p.relative_to(cwd): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}

    shared = outcomes(tmp_path / "shared", fresh=False)
    assert len(builds) == 1
    assert shared == outcomes(tmp_path / "fresh", fresh=True)
    assert [code for code, _, _ in shared[0]] == ["SystemExit 2", 2, 0, 0]
    assert len(shared[1]) == 7  # the synth series and chart, the run's five files


class TestCompare:
    def test_two_controllers(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,smc", "--out", out) == 0
        table = next(out.glob("compare_*_table.csv")).read_text().strip().split("\n")
        assert len(table) == 3
        assert table[1].startswith("cfg,ok,") and table[2].startswith("smc,ok,")

    def test_all_six_controllers_share_seed(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        names = "cfg,weight_schedule,apg,cfg_zero_star,rectified_cfgpp,smc"
        assert run_cli("compare", "--config", cfg, "--controllers", names, "--out", out) == 0
        report = json.loads(next(out.glob("compare_*_report.json")).read_text())
        assert len(report["rows"]) == 6
        assert report["seed_fingerprint"]
        assert {row["controller"] for row in report["rows"]} == set(names.split(","))

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_degenerate_row_is_flagged_and_compare_finishes(self, tmp_path, monkeypatch, scheme):
        import cfgctrl.sampler

        real = cfgctrl.sampler.velocity_pair

        def field(system, x, t, cond):  # both velocities of the second trajectory vanish from tau = 0.5 on
            v_c, v_u = real(system, x, t, cond)
            if t >= 0.5:
                v_c[1::10] = v_u[1::10] = 0.0
            return v_c, v_u

        monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", field)
        cfg = small_config(tmp_path, **{"sampler.scheme": scheme})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", ALL_SIX, "--out", out) == 0
        rows = json.loads(next(out.glob("compare_*_report.json")).read_text())["rows"]
        assert [row["status"] for row in rows] == ["ok"] * 6
        assert [row["n_divergent"] for row in rows] == [0, 0, 1, 1, 0, 0]

    def test_too_few_survivors_fail_only_that_row(self, tmp_path, monkeypatch):
        import cfgctrl.sampler

        real = cfgctrl.sampler.velocity_pair

        def field(system, x, t, cond):  # the smc block (rows 4 to 7) loses trajectories 1 and 2 from tau = 0.5 on
            v_c, v_u = real(system, x, t, cond)
            if t >= 0.5:
                v_c[5:7] = 1e300
            return v_c, v_u

        monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", field)
        cfg = small_config(tmp_path, **{"sampler.trajectories": 4})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,smc", "--out", out) == 0
        rows = json.loads(next(out.glob("compare_*_report.json")).read_text())["rows"]
        assert rows[0]["status"] == "ok"
        assert rows[1] == {"controller": "smc", "status": "failed: need at least 3 non-divergent samples, got 2"}
        table = next(out.glob("compare_*_table.csv")).read_text().split("\n")
        assert table[2] == 'smc,"failed: need at least 3 non-divergent samples, got 2",,,,,,'

    def test_rectified_power_past_the_floats_fails_only_its_row(self, tmp_path):
        cfg = reference_config(tmp_path, controller={"type": "rectified_cfgpp", "w": 5.0, "gamma": -80})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,rectified_cfgpp", "--out", out) == 0
        rows = json.loads(next(out.glob("compare_*_report.json")).read_text())["rows"]
        assert rows[0]["status"] == "ok"
        assert rows[1] == {"controller": "rectified_cfgpp", "status": "failed: every trajectory diverged"}
        table = next(out.glob("compare_*_table.csv")).read_text().split("\n")
        assert table[2] == "rectified_cfgpp,failed: every trajectory diverged,,,,,,"

    def test_csv_status_is_the_json_status(self, tmp_path):
        cfg = small_config(tmp_path, **{"sampler.trajectories": 2})
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,smc", "--out", out) == 0
        report = json.loads(next(out.glob("compare_*_report.json")).read_text())["rows"]
        header, *table = csv.reader(next(out.glob("compare_*_table.csv")).read_text().splitlines())
        assert header[:2] == ["controller", "status"] and len(table) == 2
        assert [row[1] for row in table] == [row["status"] for row in report]
        assert all(row["status"] == "failed: need at least 3 non-divergent samples, got 2" for row in report)

    def test_config_is_hashed_once(self, tmp_path, monkeypatch):
        import cfgctrl.config

        real = cfgctrl.config.fingerprint
        calls = []
        monkeypatch.setattr(cfgctrl.config, "fingerprint", lambda c: calls.append(1) or real(c))
        cfg = small_config(tmp_path)
        assert run_cli("compare", "--config", cfg, "--controllers", ALL_SIX, "--out", tmp_path / "out") == 0
        assert len(calls) == 1  # the artifact tag

    @pytest.mark.parametrize("first_formats, clash", [([], "table.csv"), (["--format", "json"], "report.json")])
    def test_other_controllers_into_same_out_refused(self, tmp_path, capsys, first_formats, clash):
        # the tag hashes the config, not --controllers or the formats, so the second run's files collide
        # with the first's; a refused run writes none of its files, not even those that would not clash
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,smc", *first_formats, "--out", out) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg,apg", "--out", out) == 2
        err = capsys.readouterr().err
        clashed = next(out.glob(f"compare_*_{clash}"))
        assert err == f"config error: refusing to overwrite {clashed} with different content\n"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_single_controller_rejected(self, tmp_path):
        cfg = small_config(tmp_path)
        assert run_cli("compare", "--config", cfg, "--controllers", "cfg", "--out", tmp_path / "o") == 2


class TestSynth:
    def test_defaults_print_corridor(self, tmp_path, capsys):
        assert run_cli("synth", "--out", tmp_path / "o") == 0
        out = capsys.readouterr().out
        assert "stability corridor" in out
        assert "(0.1, 80)" in out  # delta/w = 0.1, 2*2/(5*0.01) = 80

    def test_gain_condition_met_reaches_bound(self, tmp_path, capsys):
        assert run_cli("synth", "--k", "0.5", "--out", tmp_path / "o") == 0
        assert "reached within bound: yes" in capsys.readouterr().out

    def test_zero_gain_reports_unmet(self, tmp_path, capsys):
        assert run_cli("synth", "--k", "0", "--out", tmp_path / "o") == 0
        assert "gain condition unmet" in capsys.readouterr().out

    def test_series_csv_holds_plain_numbers(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", "--steps", "50", "--out", out) == 0
        lines = next(out.glob("synth_*_series.csv")).read_text().strip().split("\n")
        assert lines[0] == "step,s_norm,lyapunov"
        assert len(lines) > 1
        for line in lines[1:]:
            step, s_norm, lyapunov = line.split(",")
            int(step), float(s_norm), float(lyapunov)

    def test_corridor_mode_writes_csv(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("synth", "--corridor", "--k-values", "0.02,0.3,1.0,0.01", "--steps", "800", "--out", out) == 0
        table = next(out.glob("synth_*_corridor.csv")).read_text().strip().split("\n")
        assert table[0] == "k,reached,reach_step,residual_band,osc_amplitude"
        assert len(table) == 5
        assert re.match(r"0\.3,true,\d+,", table[2])
        assert table[4] == "0.01,false,,,"

    @pytest.mark.parametrize(
        "flags, tag, kinds",
        [
            # these are the defaults, and the tag is the one a bare `synth` writes
            (["--delta", "0.5", "--w", "5", "--k", "0.5", "--dt", "0.01", "--steps", "2000"], "16448a3c2332",
             ("s_norm.svg", "series.csv")),
            (["--dim", "4", "--rho", "0.5", "--gain-deviation", "seeded"], "8a6d197954bb", ("s_norm.svg", "series.csv")),
            (["--drift", "noise", "--dim", "3", "--rho", "0.4", "--gain-deviation", "seeded", "--seed", "5"],
             "20cf8c14371f", ("s_norm.svg", "series.csv")),
            (["--corridor", "--k-values", "0.02,0.3,1.0,400,1e306"], "78803769ddd5", ("corridor.csv", "osc.svg")),
            (["--drift", "sinusoidal", "--dim", "2", "--rho", "0.3", "--gain-deviation", "rotation",
              "--corridor", "--k-values", "0.5,2"], "64e29ee93c1e", ("corridor.csv", "osc.svg")),
            (["--corridor", "--k-values", "0.02,0.3,1.0,400"], "8b67f2d9519e", ("corridor.csv", "osc.svg")),
        ],
        ids=["defaults-spelled-out", "seeded-gain", "noise-drift", "corridor", "sinusoidal-corridor",
             "four-gain-corridor"],
    )
    def test_artifact_tag_hashes_the_run_flags(self, tmp_path, flags, tag, kinds):
        # the tag is a hash of every flag but --out, so spelling out a default keeps the file names
        out = tmp_path / "o"
        assert run_cli("synth", *flags, "--out", out) == 0
        assert sorted(path.name for path in out.iterdir()) == [f"synth_{tag}_{kind}" for kind in kinds]
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert run_cli("synth", *flags, "--out", out) == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("blocked", BLOCKED_OUT)
    def test_out_blocked_by_a_file_exits_2(self, tmp_path, capsys, blocked):
        assert_out_refused(tmp_path, capsys, blocked, "synth", "--steps", "50")

    def test_overflow_exits_3_without_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("synth", "--w", "1e300", "--k", "1e10", "--steps", "50", "--out", out) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"synth [0-9a-f]{12}: surface state overflowed at step 1\n", captured.err)
        assert "reached band" not in captured.out
        assert not out.exists()

    def test_corridor_reports_overflowed_gain(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("synth", "--corridor", "--k-values", "0.3,1e308,1.0", "--steps", "400", "--out", out) == 0
        printed = capsys.readouterr().out
        assert "k=1e+308: overflowed at step 1\n" in printed
        assert "k=0.3: converged at step" in printed and "k=1: converged at step" in printed
        table = next(out.glob("synth_*_corridor.csv")).read_text().strip().split("\n")
        assert table[0] == "k,reached,reach_step,residual_band,osc_amplitude"
        assert table[2] == "1e+308,false,,,"
        assert table[1].startswith("0.3,true,") and table[3].startswith("1.0,true,")
        assert "nan" not in next(out.glob("synth_*_osc.svg")).read_text()

    def test_energy_overflow_exits_3_without_artifacts(self, tmp_path, capsys):
        # the state at step 1 is -5e304, still finite; |s| and 0.5*|s|^2 there are not
        out = tmp_path / "o"
        assert run_cli("synth", "--k", "1e306", "--steps", "50", "--out", out) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(r"synth [0-9a-f]{12}: surface state overflowed at step 1\n", captured.err)
        assert "reached band" not in captured.out
        assert not out.exists()

    def test_module_entry_point_exits_with_mains_code(self, tmp_path):
        # `python -m cfgctrl.cli` in a fresh interpreter: sys.exit(main()) hands the overflow's 3 to the shell
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["synth", "--k", "1e306", "--steps", "50", "--out", "o"]
        proc = subprocess.run([sys.executable, "-m", "cfgctrl.cli", *argv], cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 3
        assert re.fullmatch(r"synth [0-9a-f]{12}: surface state overflowed at step 1\n", proc.stderr)
        assert not any(tmp_path.iterdir())

    def test_corridor_reports_energy_overflow(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli("synth", "--corridor", "--k-values", "0.3,1e306", "--steps", "50", "--out", out) == 0
        assert "k=1e+306: overflowed at step 1\n" in capsys.readouterr().out
        table = next(out.glob("synth_*_corridor.csv")).read_text().strip().split("\n")
        assert table[2] == "1e+306,false,,,"
        for path in out.iterdir():
            text = path.read_text()
            assert "inf" not in text and "nan" not in text, path.name

    @pytest.mark.parametrize("flags", [
        ["--delta", "1e8", "--dim", "3"],
        ["--delta", "3e7", "--dim", "6"],
        ["--delta", "3e7", "--dim", "7"],
        ["--delta", "1e8", "--dim", "3", "--corridor", "--k-values", "1,2"],
    ])
    def test_drift_at_its_bound_passes_at_any_scale(self, tmp_path, capsys, flags):
        # the constant drift's norm is an ulp of delta above it here, more than 1e-9
        out = tmp_path / "o"
        assert run_cli("synth", *flags, "--steps", "50", "--out", out) == 0
        assert capsys.readouterr().err == ""
        assert any(out.iterdir())

    @pytest.mark.parametrize("flags, step", [
        (["--delta", "1e200", "--steps", "50"], 1),
        (["--delta", "1e200", "--drift", "sinusoidal", "--steps", "50"], 2),
        (["--delta", "1e200", "--drift", "noise", "--steps", "50"], 1),
        (["--rho", "1e200", "--gain-deviation", "seeded", "--dim", "3", "--steps", "50"], 1),
        (["--rho", "1e308", "--gain-deviation", "rotation", "--dim", "3", "--steps", "50"], 1),
        (["--rho", "1e308", "--gain-deviation", "rotation", "--dim", "3"], 1),
    ])
    def test_bound_past_a_square_overflows_the_surface(self, tmp_path, capsys, flags, step):
        # the bound checks neither overflow nor fail; the surface state leaves the floats, and nothing is written
        out = tmp_path / "o"
        assert run_cli("synth", *flags, "--out", out) == 3
        captured = capsys.readouterr()
        assert re.fullmatch(rf"synth [0-9a-f]{{12}}: surface state overflowed at step {step}\n", captured.err)
        assert "reached band" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("flags, cause", [
        (["--drift", "sinusoidal", "--dt", "1e308", "--steps", "5"], "sinusoidal drift phase overflowed at step 1"),
        (["--drift", "sinusoidal", "--dt", "1e308", "--steps", "5", "--corridor", "--k-values", "1,2"],
         "sinusoidal drift phase overflowed at step 1"),
        (["--drift", "noise", "--delta", "1e308", "--dim", "3", "--steps", "50"], "realized drift overflowed"),
        (["--rho", "1.7e308", "--gain-deviation", "seeded", "--dim", "3", "--steps", "50"],
         "realized gain deviation overflowed"),
        (["--rho", "1.7e308", "--gain-deviation", "seeded", "--dim", "3", "--steps", "50", "--corridor",
          "--k-values", "1"], "realized gain deviation overflowed"),
    ])
    def test_overflowed_realization_exits_3_naming_it(self, tmp_path, capsys, flags, cause):
        out = tmp_path / "o"
        assert run_cli("synth", *flags, "--out", out) == 3
        assert re.fullmatch(rf"synth [0-9a-f]{{12}}: {cause}\n", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("steps", ["3", "50"])
    def test_underflowed_step_gain_runs(self, tmp_path, capsys, steps):
        # w * dt underflows to 0.0, so the corridor's upper edge is inf
        assert run_cli("synth", "--w", "1e-320", "--dt", "1e-320", "--steps", steps, "--out", tmp_path / "o") == 0
        assert capsys.readouterr().out.startswith("stability corridor: k in (inf, inf)\n")

    @pytest.mark.parametrize("steps", ["1", "50"])
    def test_lone_converged_gain_below_the_floats_is_plotted(self, tmp_path, steps):
        # k = 5e-324 converges at step 0; a tenth of it, the oscillation chart's pad, underflows to 0
        out = tmp_path / "o"
        flags = ["--corridor", "--k-values", "5e-324", "--delta", "0", "--w", "1e160", "--dt", "1e308",
                 "--steps", steps]
        assert run_cli("synth", *flags, "--out", out) == 0
        assert "<polyline" in next(out.glob("synth_*_osc.svg")).read_text()

    def test_reach_bound_past_the_floats_is_no_step_count(self, tmp_path, capsys):
        # bound_time / dt overflows at dt = 1e-320
        assert run_cli("synth", "--dt", "1e-320", "--steps", "50", "--out", tmp_path / "o") == 0
        assert capsys.readouterr().out.endswith(
            "\ndid not reach the band within the step budget; the reach bound is not a finite step count\n")

    def test_reached_band_without_a_step_bound_is_not_called_missed(self, tmp_path, capsys, monkeypatch):
        real = control_lab.simulate_sliding
        monkeypatch.setattr(control_lab, "simulate_sliding", lambda dyn, steps: replace(real(dyn, steps), bound_steps=None))
        assert run_cli("synth", "--out", tmp_path / "o") == 0
        printed = capsys.readouterr().out
        assert re.search(r"\nreached band at step \d+; the reach bound is not a finite step count\n$", printed)

    def test_infeasible_corridor_warns_exit_zero(self, tmp_path, capsys):
        assert run_cli("synth", "--delta", "100", "--dt", "10", "--out", tmp_path / "o") == 0
        assert "infeasible" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--steps", "0"], "--steps"),
            (["--dim", "0"], "--dim"),
            (["--w", "0"], "--w"),
            (["--w", "nan"], "--w"),
            (["--w", "inf"], "--w"),
            (["--dt", "-1"], "--dt"),
            (["--s0", "0"], "--s0"),
            (["--k", "-0.1"], "--k"),
            (["--delta", "-0.5"], "--delta"),
            (["--rho", "-1"], "--rho"),
            (["--corridor"], "--k-values"),
            (["--corridor", "--k-values", "0.1,abc"], "--k-values"),
            (["--corridor", "--k-values", "0.1,-2"], "--k-values"),
            (["--corridor", "--k-values", "0.1,inf"], "--k-values"),
            (["--k-values", "0.1,0.2", "--steps", "50"], "--k-values"),
            (["--seed", "-1"], "--seed"),
            (["--seed", str(2**64 + 7)], "--seed"),
            (["--steps", "1" + "0" * 400], "--steps"),
            (["--dim", "1" + "0" * 400], "--dim"),
            (["--out", ""], "--out"),
        ],
    )
    def test_bad_flag_exits_2_naming_it(self, tmp_path, capsys, monkeypatch, flags, named):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--out", "o", *flags) == 2
        assert f"config error: {named}:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value, code", [
        ("--s0", "-1e3", 0),
        ("--s0", "-2.5E-1", 0),
        ("--w", "-1e-3", 2),  # refused by its bound, naming the flag
        ("--delta", "-inf", 2),
        ("--del", "-1e3", 2),  # a prefix argparse resolves to --delta
        ("--rh", "-2.5E-1", 2),
    ])
    def test_negative_exponent_value_in_either_spelling(self, tmp_path, capsys, flag, value, code):
        # argparse reads "-1e3" as an option where it reads "-1000" as a number; both spellings run alike
        outputs = []
        for out, argv in ((tmp_path / "split", [flag, value]), (tmp_path / "joined", [f"{flag}={value}"])):
            assert run_cli("synth", *argv, "--steps", "50", "--out", out) == code
            files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
            outputs.append((capsys.readouterr(), files))
        assert outputs[0] == outputs[1]
        assert (outputs[0][1] is not None) == (code == 0)

    def test_negative_exponent_int_flag_is_refused_as_an_int(self, capsys):
        for argv in (["--steps", "-1e3"], ["--steps=-1e3"]):
            with pytest.raises(SystemExit) as exit_:
                run_cli("synth", *argv)
            assert exit_.value.code == 2 and "argument --steps: invalid int value: '-1e3'" in capsys.readouterr().err


BIG = "1" + "0" * 400  # an int past the float range; as a float flag's text it reads inf
FLOAT_TOKENS = ["0", "-0", "0.0", "-0.0", "1", "-1", "0.5", "2", "5e-324", "-5e-324", "1e-320", "1e308", "-1e308",
                "1.7976931348623157e308", "1e309", "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1E3", "-1e3",
                "2.5e-1", "-2.5E-1", "1e+2", BIG, "-" + BIG, "abc", ""]
# an accepted --dim stays at most 8 and an accepted --steps at most 50, so every run is small
INT_TOKENS = {
    "dim": ["0", "-1", "1", "2", "4", "8", BIG, "-" + BIG, "2.5", "1e3", "-1e3", "nan", ""],
    "steps": ["0", "-1", "1", "2", "50", BIG, "-" + BIG, "2.5", "-1e3", "inf"],
    "seed": ["0", "1", "-1", str(2**64 - 1), str(2**64), str(2**70), "1e3", "-1e3"],
}
GAIN_TOKENS = [t for t in FLOAT_TOKENS if t not in ("abc", "")]


@st.composite
def synth_argvs(draw):
    """A synth argv: up to three numeric flags and --steps at edge values, each in either spelling, maybe a corridor."""
    names = draw(st.lists(st.sampled_from(["delta", "rho", "w", "k", "dim", "dt", "s0", "seed"]), unique=True,
                          max_size=3))
    argv = ["synth", "--drift", draw(st.sampled_from(control_lab.DRIFT_KINDS)),
            "--gain-deviation", draw(st.sampled_from(control_lab.GAIN_KINDS))]
    for name in [*names, "steps"]:
        token = draw(st.sampled_from(INT_TOKENS.get(name, FLOAT_TOKENS)))
        argv += [f"--{name}={token}"] if draw(st.booleans()) else [f"--{name}", token]
    if draw(st.booleans()):  # joined: argparse reads a split list led by "-1e3," as an option
        argv += ["--corridor", "--k-values=" + ",".join(draw(st.lists(st.sampled_from(GAIN_TOKENS), min_size=1,
                                                                        max_size=3)))]
    return argv


def flag_texts(argv: list[str]) -> dict[str, str | None]:
    """Each ``--name`` of a synth argv with the text of its value, in either spelling."""
    texts, args = {}, iter(argv[1:])
    for arg in args:
        name, eq, text = arg[2:].partition("=")
        texts[name] = text if eq else None if name == "corridor" else next(args)
    return texts


def refused_in_code(name: str, value) -> str | None:
    """The ConfigError the testbed built in code gives ``value`` for field ``name``, the rest at synth's defaults.

    ``steps`` goes to ``simulate_sliding`` and ``k-values`` to ``corridor_sweep``, one step each.
    """
    fields = {"dim": 1, "w": 5.0, "delta": 0.5, "rho": 0.0, "k": 0.5, "dt": 0.01, "seed": 0}
    if name in fields:
        fields[name] = value
    s0 = np.zeros(value if name == "dim" and 1 <= value <= 8 else 1)
    s0[0] = value if name == "s0" else 2.0
    try:
        dyn = control_lab.PerturbedDynamics(s0=s0, **fields)
        if name == "steps":
            control_lab.simulate_sliding(dyn, value)
        if name == "k-values":
            control_lab.corridor_sweep(dyn, value, 1)
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=300)
@given(synth_argvs())
@example(["synth", "--s0", "-1e3"])  # argparse reads "-1e3" as an option; synth attaches it to --s0
def test_synth_flags_are_refused_as_the_testbed_built_in_code_refuses_them(argv):
    """Every synth argv exits 0, 2 or 3, or is refused by argparse. It exits 2 naming a flag exactly when the
    testbed built in code from that flag's value refuses it, by the same message but for --s0's."""
    texts = flag_texts(argv)
    kinds = {"dim": int, "steps": int, "seed": int, "k-values": lambda text: [float(v) for v in text.split(",")]}
    try:
        values = {name: kinds.get(name, float)(text) for name, text in texts.items()
                  if name not in ("drift", "gain-deviation", "corridor")}
    except ValueError:
        values = None
    err, printed = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), contextlib.redirect_stdout(printed):
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = f"argparse exit {exc.code}"
    if values is None:  # a value of the wrong type
        assert code == "argparse exit 2"
        return
    refused = {name: message for name, value in values.items() if (message := refused_in_code(name, value))}
    assert code in (0, 2, 3) and (code == 2) == bool(refused), (code, refused, err.getvalue())
    if code == 2:
        flag, message = re.fullmatch(r"config error: --([\w-]+): (.*)\n", err.getvalue()).groups()
        assert flag in refused
        if flag != "s0":  # the flag is the vector's first entry
            assert refused[flag] == f"{'k' if flag == 'k-values' else flag}: {message}"


# Values each key of the reference config accepts, out to the edges of the floats
MEANS = st.sampled_from([0.0, 3.0, -3.0, 1e-300, 1e100, 1.3e154, 1e200, -1e200, 1.7e308, -1.7e308])
VARIANCES = st.sampled_from([5e-324, 1e-300, 1e-10, 1.0, 1e8, 1e200, 1.7e308])
GAINS = st.sampled_from([0.0, 5e-324, 1e-300, 0.5, 1.0, 5.0, 1e10, 1e300, -1.0, -1e300])
COMPONENT = ("system", "components")


@st.composite
def run_edits(draw):
    """Edits of one to four sites of the reference config, each to a value its key accepts."""
    edits = []
    for site in draw(st.lists(st.sampled_from(["mean", "cov", "weights", "conditions", "target", "controller",
                                               "sampler"]), min_size=1, max_size=4, unique=True)):
        c = draw(st.sampled_from([0, 1]))
        if site == "mean":
            edits.append((COMPONENT + (c, "mean"), [draw(MEANS), draw(MEANS)]))
        elif site == "cov":
            a, b = draw(VARIANCES), draw(VARIANCES)
            cov = {"diag": [a, b]} if draw(st.booleans()) else {"full_lower": [[a], [0.5 * a**0.5 * b**0.5, b]]}
            edits.append((COMPONENT + (c, "cov"), cov))
        elif site == "weights":
            w = draw(st.sampled_from([0.25, 1e-6, 1e-300]))
            edits += [(COMPONENT + (c, "weight"), w), (COMPONENT + (1 - c, "weight"), 1.0 - w)]
        elif site == "conditions":
            edits.append((("system", "conditions"), {"right": [0, 1][: c + 1], "left": [1]}))
        elif site == "target":
            edits.append((("system", "target"), "left"))
        elif site == "controller":
            kind = draw(st.sampled_from(sorted(CONTROLLERS)))
            block = {"type": kind}
            for key, spec in CONTROLLERS[kind].keys.items():
                if spec.required or draw(st.booleans()):
                    block[key] = draw(st.sampled_from(spec.choices) if spec.choices else GAINS.filter(spec.bound))
            edits.append((("controller",), block))
        else:
            edits.append((("sampler",), {"scheme": draw(st.sampled_from(["euler", "heun"])),
                                         "steps": draw(st.sampled_from([2, 3, 64])),
                                         "trajectories": draw(st.sampled_from([1, 3, 50])),
                                         "seed": draw(st.integers(0, 2**64 - 1)),
                                         "record_x": draw(st.booleans()),
                                         "tau_clamp": draw(st.sampled_from([1e-300, 1e-4, 0.49]))}))
    return edits


@settings(max_examples=100)
@given(run_edits())
@example([(COMPONENT + (1, "mean"), [1e200, 0.0]), (("controller",), {"type": "cfg", "w": 5.0})])
@example([(COMPONENT + (0, "cov"), {"diag": [5e-324, 5e-324]}), (("controller",), {"type": "cfg", "w": 5.0})])
@example([(COMPONENT + (0, "cov"), {"full_lower": [[1e-300], [5e-51, 1e200]]})])  # eigh rounds a variance to 0
@example([(COMPONENT + (0, "weight"), 1.0 - 1e-6), (COMPONENT + (1, "weight"), 1e-6),
          (COMPONENT + (0, "cov"), {"diag": [1e8, 1e8]}), (COMPONENT + (1, "mean"), [1.3e154, 0.0]),
          (("system", "conditions"), {"right": [0, 1], "left": [1]})])
def test_run_on_any_accepted_config_finishes_or_exits_2_or_3(edits):
    """``run`` exits 2 exactly when the config is refused, else 0 or 3; it raises nothing and warns nothing."""
    raw = json.loads(REFERENCE_CONFIG.read_text())
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        config_from_dict(raw)
        refused = False
    except ConfigError:
        refused = True
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        code = main(["run", "--config", str(config), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3) and (code == 2) == refused, (code, err.getvalue())


@pytest.mark.parametrize("flags, message", [
    (["--seed", -1], "--seed: must lie in [0, 2**64)"),
    (["--seed", 2**64], "--seed: must lie in [0, 2**64)"),
    (["--seed", 2**64 + 7], "--seed: must lie in [0, 2**64)"),
    (["--out", ""], "--out: must be a nonempty string"),
], ids=["seed=-1", "seed=2**64", "seed=2**64+7", "empty-out"])
@pytest.mark.parametrize("command", [["run"], ["compare", "--controllers", "cfg,smc"], ["sweep"]],
                         ids=["run", "compare", "sweep"])
def test_bad_override_exits_2_writing_nothing(tmp_path, capsys, monkeypatch, command, flags, message):
    """A --seed the streams would reduce mod 2**64, or an --out naming the working directory, is refused before
    anything runs or is written."""
    cfg = small_config(tmp_path, sweep={"parameter": "w", "values": [1.0, 2.0]})
    monkeypatch.chdir(tmp_path)
    assert run_cli(command[0], "--config", cfg, *command[1:], "--out", "o", *flags) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg]


class TestCsv:
    @pytest.mark.parametrize(
        "header, rows",
        [
            (["k", "status"], []),
            (["k", "status"], [["0.5", "ok"], ["1.0", "ok"]]),
            (["k", "reached", "reach_step"], [["0.01", "false", ""], ["", "", ""]]),
            (["k", "status"], [["0.5", "failed: too few survivors, 2 of 4"]]),
            (["k", "status"], [["0.5", 'failed: law "x" raised']]),
            (["k", "status"], [["0.5", "failed: line one\nline two"]]),
            (["k", "status"], [["0.5", "failed: a\rb"], ["1.0", "ok"]]),
            (["k", "a,b", "c"], [['"', ",", "\r\n"]]),
        ],
        ids=["header-only", "plain", "empty-cells", "comma", "quote", "line-feed", "carriage-return", "all-at-once"],
    )
    def test_reads_back_as_the_cells(self, header, rows):
        text = _csv(header, rows)
        assert list(csv.reader(io.StringIO(text, newline=""))) == [header, *rows]
        assert text.endswith("\n") and text.count("\n") - sum(c.count("\n") for r in rows for c in r) == len(rows) + 1
        if not any(ch in c for r in [header, *rows] for c in r for ch in ',"\r\n'):
            assert text == "".join(",".join(cells) + "\n" for cells in [header, *rows])
