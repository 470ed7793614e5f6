"""Experiment runner CLI: run | sweep | synth | compare.

Every output file is named from (command, config fingerprint); reruns with
the same config produce byte-identical CSV/JSON artifacts, and a name
collision with different content is a config error: the command then writes
none of its files.

Exit codes: 0 success, 2 config error, 3 a run whose batch cannot be
reported on (it kept fewer than dimension + 1 trajectories, or the target's
covariance or a report value is not finite) or a synth run whose surface
state, drift or gain realization, or drift phase overflowed. ``compare``
and ``sweep`` share one table path: a batch that cannot be reported on is a
``failed: <reason>`` row, the other rows finish, and the command exits 0.
``compare`` steps one law per row; ``sweep`` steps one law for all its
values, the swept gain a per-row column.

``synth`` loads only the testbed and the charts: this module imports
``control_lab``, ``svgplot`` and the scalar checks, and ``run``, ``sweep``
and ``compare`` import the config parser, the control laws, the sampler and
the metrics when they run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import control_lab, svgplot
from .checks import ConfigError, check_directory, check_seed

if TYPE_CHECKING:
    from .config import ControllerSpec, ExperimentConfig
    from .sampler import RunResult


# The benchmark's tracer (bench/spans.py) wraps these three names of this module, so they stay module-level
# functions that import the sampler when called. run_batch calls run_batches, as sampler.run_batch does: the
# tracer counts sampler.run_batch under the same span, so a call through it would count each batch twice.
def run_batch(cfg: ExperimentConfig) -> RunResult:
    """The batch of the config's own controller."""
    from .sampler import run_batches

    (result,) = run_batches(cfg, [cfg.controller])
    return result


def traces_to_csv(result: RunResult) -> str:
    from . import sampler

    return sampler.traces_to_csv(result)


def traces_to_json(result: RunResult) -> str:
    from . import sampler

    return sampler.traces_to_json(result)


def _write_text(files: dict[Path, str]) -> None:
    """Write every file, skipping one that already holds its bytes.

    If one holds other bytes, anything but a file stands where one goes, a file stands where a directory must be,
    or a path cannot be looked up (a name too long, say), write none and make no directory.
    """
    data = {path: content.encode("utf-8") for path, content in files.items()}
    try:
        for checked in {path.parent for path in data}:
            found = next(p for p in (checked, *checked.parents) if p.exists())  # the root, "." or "/", exists
            if not found.is_dir():
                raise ConfigError(f"output directory {checked}: {found} is not a directory")
        for checked, blob in data.items():
            if not checked.exists():
                continue
            if not checked.is_file():
                raise ConfigError(f"output file {checked}: not a regular file")
            if checked.read_bytes() != blob:
                raise ConfigError(f"refusing to overwrite {checked} with different content")
    except OSError as exc:
        raise ConfigError(f"output path {checked}: {exc.strerror or exc}") from None
    for path, blob in data.items():
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(blob)


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _setup(args) -> tuple[ExperimentConfig, str, Path]:
    """The config with the command line's overrides, its fingerprint (the artifact tag) and the output directory."""
    from . import config as cfgmod

    cfg = cfgmod.load_config(args.config)
    if args.seed is not None:
        cfg = cfgmod.with_seed(cfg, check_seed(args.seed, "--seed"))
    if args.out is not None:
        cfg = replace(cfg, output=replace(cfg.output, directory=check_directory(args.out, "--out")))
    if args.format is not None:
        formats = cfgmod.check_formats([f.strip() for f in args.format.split(",") if f.strip()], "--format")
        cfg = replace(cfg, output=replace(cfg.output, formats=formats))
    return cfg, cfgmod.fingerprint(cfg), Path(cfg.output.directory)


def _mean_gap_curve(result: RunResult) -> tuple[list, list]:
    return list(range(result.e_norm.shape[1])), list(result.e_norm.mean(axis=0))


def cmd_run(args) -> int:
    from . import metrics
    from .config import build_control_law

    cfg, tag, out = _setup(args)
    result = run_batch(cfg)
    try:
        report = metrics.quality_report(result, result.system, cfg.system.target)
    except ValueError as exc:
        print(f"run {tag}: {exc}", file=sys.stderr)
        return 3

    files = {}
    if "csv" in cfg.output.formats:
        files[out / f"run_{tag}_traces.csv"] = traces_to_csv(result)
    if "json" in cfg.output.formats:
        files[out / f"run_{tag}_report.json"] = json.dumps(report.to_dict(), indent=2) + "\n"
        files[out / f"run_{tag}_traces.json"] = traces_to_json(result)
    if "svg" in cfg.output.formats:
        steps, curve = _mean_gap_curve(result)
        files[out / f"run_{tag}_e_norm.svg"] = svgplot.line_chart(
            [("mean |e|", steps, curve)], "gap norm per step", "step", "|e|"
        )
        pts = metrics.phase_plane(result)
        law = build_control_law(cfg.controller)
        ref = None if result.s_norm is None else (f"slope -{law.lam:g}", -law.lam)
        files[out / f"run_{tag}_phase.svg"] = svgplot.scatter_chart(
            [("traces", pts[:, 0].tolist(), pts[:, 1].tolist())],
            "gap phase plane",
            "|e|",
            "d|e|/dtau",
            ref_line=ref,
        )
    _write_text(files)
    print(f"run {tag}: {result.run_ids.size}/{result.n_trajectories} trajectories, "
          f"w2={report.w2:.4f} alignment={report.alignment:.4f} "
          f"oversaturation={report.oversaturation:.4f} divergent={report.n_divergent}")
    return 0


_SWEEP_FIELDS = ("w2", "alignment", "oversaturation", "e_decay_ratio", "mean_reach_step", "n_divergent")


def _csv(header: list[str], rows) -> str:
    """The header line, then one line per row of text cells; a cell holding a comma, a quote or a line break is quoted.

    Only a status cell can need quotes, so the plain join is made first and
    kept if its separators are all the ones the join put in.
    """
    lines = [header, *rows]
    text = "".join(",".join(cells) + "\n" for cells in lines)
    if (text.count(",") == sum(map(len, lines)) - len(lines) and text.count("\n") == len(lines)
            and '"' not in text and "\r" not in text):
        return text

    def cell(c):
        return '"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\r" in c or "\n" in c else c

    return "".join(",".join(map(cell, cells)) + "\n" for cells in lines)


def _table_csv(key: str, rows: list[dict], first=str) -> str:
    """One line per row: ``first(row[key])``, the status, then _SWEEP_FIELDS."""
    def cells(row):
        values = (str(row[f]) if f == "n_divergent" and f in row else _fmt(row.get(f)) for f in _SWEEP_FIELDS)
        return [first(row[key]), row["status"], *values]

    return _csv([key, "status", *_SWEEP_FIELDS], map(cells, rows))


def _row(result: RunResult, target: str) -> dict:
    """A batch's status and report cells; ``failed: <reason>`` if its report fails."""
    from . import metrics

    try:
        report = metrics.quality_report(result, result.system, target)
    except ValueError as exc:
        return {"status": f"failed: {exc}"}
    return {"status": "ok", **report.to_dict(), "mean_reach_step": metrics.mean_reach_step(result)}


def _table(key: str, labels, results: list[RunResult], target: str) -> list[dict]:
    """A row per batch of one lockstep pass, ``key`` holding its label; a failed row does not stop the others."""
    return [{key: label, **_row(result, target)} for label, result in zip(labels, results)]


def cmd_sweep(args) -> int:
    from .sampler import run_sweep

    cfg, tag, out = _setup(args)
    results = run_sweep(cfg)  # refuses a config without a sweep block
    rows = _table("value", cfg.sweep.values, results, cfg.system.target)
    files = {}
    if "csv" in cfg.output.formats:
        files[out / f"sweep_{tag}_table.csv"] = _table_csv("value", rows, _fmt)
    if "json" in cfg.output.formats:
        table = {"parameter": cfg.sweep.parameter, "rows": rows}
        files[out / f"sweep_{tag}_table.json"] = json.dumps(table, indent=2) + "\n"
    if "svg" in cfg.output.formats:
        good = [r for r in rows if r["status"] == "ok"]
        for field in ("w2", "alignment", "oversaturation", "e_decay_ratio"):
            xs = [r["value"] for r in good if r.get(field) is not None]
            ys = [r[field] for r in good if r.get(field) is not None]
            if xs:
                files[out / f"sweep_{tag}_{field}.svg"] = svgplot.line_chart(
                    [(field, xs, ys)], f"{field} vs {cfg.sweep.parameter}", cfg.sweep.parameter, field
                )
    _write_text(files)
    n_ok = sum(1 for r in rows if r["status"] == "ok")
    print(f"sweep {tag}: {n_ok}/{len(rows)} values over {cfg.sweep.parameter}")
    return 0


def _compare_controller(name: str, base: ControllerSpec) -> ControllerSpec:
    """The base config's own block for its type; any other type gets only the base gain."""
    from .config import ControllerSpec, build_control_law
    from .guidance import CONTROLLERS

    if name == base.type:
        return base
    if name not in CONTROLLERS:
        raise ConfigError(f"--controllers: unknown controller type {name!r}")
    w = build_control_law(base).w
    params = {"w": w} if "w" in CONTROLLERS[name].keys else {"w_max": max(w, 1.0)}
    return ControllerSpec(name, params)


def cmd_compare(args) -> int:
    from .sampler import run_batches

    cfg, tag, out = _setup(args)
    names = [n.strip() for n in args.controllers.split(",") if n.strip()]
    if len(names) < 2:
        raise ConfigError("--controllers: need at least two controllers to compare")
    seed_print = hashlib.sha256(
        json.dumps([cfg.sampler.seed, cfg.sampler.trajectories]).encode()
    ).hexdigest()[:12]

    results = run_batches(cfg, [_compare_controller(name, cfg.controller) for name in names])
    rows = _table("controller", names, results, cfg.system.target)
    curves = [(row["controller"], *_mean_gap_curve(result))
              for row, result in zip(rows, results) if row["status"] == "ok"]
    files = {}
    if "csv" in cfg.output.formats:
        files[out / f"compare_{tag}_table.csv"] = _table_csv("controller", rows)
    if "json" in cfg.output.formats:
        report = {"seed_fingerprint": seed_print, "rows": rows}
        files[out / f"compare_{tag}_report.json"] = json.dumps(report, indent=2) + "\n"
    if "svg" in cfg.output.formats and curves:
        files[out / f"compare_{tag}_e_norm.svg"] = svgplot.line_chart(curves, "mean gap norm per step", "step", "|e|")
    _write_text(files)
    print(f"compare {tag}: {len(rows)} controllers, seeds {seed_print}")
    return 0


def _synth_k_values(args) -> list[float] | None:
    """Check every synth flag; returns the parsed --k-values of a corridor run."""
    check_seed(args.seed, "--seed")
    if args.out is not None:
        check_directory(args.out, "--out")
    for name in control_lab.RULES:
        control_lab.check(name, getattr(args, name), "--" + name)
    if not args.corridor:
        if args.k_values is not None:
            raise ConfigError("--k-values: only a --corridor run takes a list of gains")
        return None
    if not args.k_values:
        raise ConfigError("--k-values: required with --corridor")
    try:
        k_values = [float(v) for v in args.k_values.split(",")]
    except ValueError:
        raise ConfigError(f"--k-values: {args.k_values!r} is not a comma-separated list of numbers") from None
    for k in k_values:
        control_lab.check("k", k, "--k-values")
    return k_values


def cmd_synth(args) -> int:
    k_values = _synth_k_values(args)
    s0 = np.zeros(args.dim)
    s0[0] = args.s0
    dyn = control_lab.PerturbedDynamics(
        dim=args.dim,
        w=args.w,
        delta=args.delta,
        rho=args.rho,
        k=args.k,
        dt=args.dt,
        s0=s0,
        drift=args.drift,
        gain_deviation=args.gain_deviation,
        seed=args.seed,
    )
    run_params = {key: value for key, value in vars(args).items() if key not in ("command", "func", "out")}
    tag = hashlib.sha256(json.dumps(run_params, sort_keys=True).encode()).hexdigest()[:12]
    out = Path(args.out or "out")

    k_lo, k_hi = control_lab.stability_corridor(args.delta, args.w, abs(args.s0), args.dt)
    print(f"stability corridor: k in ({k_lo:.6g}, {k_hi:.6g})")
    if k_lo >= k_hi:
        print("warning: corridor infeasible for these parameters")

    try:
        if k_values is not None:
            rows = control_lab.corridor_sweep(dyn, k_values, args.steps)
        else:
            report = control_lab.simulate_sliding(dyn, args.steps)
    except control_lab.Overflow as exc:
        print(f"synth {tag}: {exc}", file=sys.stderr)
        return 3
    if k_values is not None:
        cells = ([_fmt(r.k), str(r.reached).lower(), "" if r.reach_step is None else str(r.reach_step),
                  _fmt(r.residual_band), _fmt(r.osc_amplitude)] for r in rows)
        header = ["k", "reached", "reach_step", "residual_band", "osc_amplitude"]
        files = {out / f"synth_{tag}_corridor.csv": _csv(header, cells)}
        converged = [(r.k, r.osc_amplitude) for r in rows if r.reached]
        if converged:
            files[out / f"synth_{tag}_osc.svg"] = svgplot.line_chart(
                [("oscillation", [c[0] for c in converged], [c[1] for c in converged])],
                "tail oscillation vs switching gain", "k", "mean |ds|",
            )
        _write_text(files)
        for row in rows:
            if row.overflow_step is not None:
                state = f"overflowed at step {row.overflow_step}"
            else:
                state = f"converged at step {row.reach_step}" if row.reached else "did not converge"
            print(f"k={row.k:g}: {state}")
        return 0

    s_norms = report.s_norms.tolist()
    series = zip(map(str, range(len(s_norms))), map(repr, s_norms), map(repr, report.lyapunov.tolist()))
    _write_text({
        out / f"synth_{tag}_series.csv": _csv(["step", "s_norm", "lyapunov"], series),
        out / f"synth_{tag}_s_norm.svg": svgplot.line_chart(
            [("|s|", list(range(len(s_norms))), s_norms)], "surface norm per step", "step", "|s|"
        ),
    })
    reach = (f"reached band at step {report.reach_step}" if report.reached
             else "did not reach the band within the step budget")
    if not report.gain_condition_met:
        print("gain condition unmet")
    elif report.bound_steps is None:
        print(f"{reach}; the reach bound is not a finite step count")
    elif report.reached:
        within = report.reach_step <= report.bound_steps * 1.05 + 1
        print(f"{reach} (bound {report.bound_steps} steps); reached within bound: {'yes' if within else 'no'}")
    else:
        print(reach)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfgctrl", description="guided flow sampling experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--format", help="comma-separated subset of csv,json,svg")

    p_run = sub.add_parser("run", help="single batch with trace/report export")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="one batch per swept parameter value")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="same batch under several controllers")
    common(p_cmp)
    p_cmp.add_argument("--controllers", required=True, help="comma-separated controller types")
    p_cmp.set_defaults(func=cmd_compare)

    p_syn = sub.add_parser("synth", help="synthetic sliding-dynamics testbed")
    for name, (kind, default, _, _) in control_lab.RULES.items():
        p_syn.add_argument("--" + name, type=kind, default=default)
    p_syn.add_argument("--drift", choices=control_lab.DRIFT_KINDS, default="constant")
    p_syn.add_argument("--gain-deviation", choices=control_lab.GAIN_KINDS, default="zero")
    p_syn.add_argument("--corridor", action="store_true", help="sweep switching gains instead of one run")
    p_syn.add_argument("--k-values", help="comma-separated gains for --corridor")
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument("--out", help="output directory")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``synth --s0 -1e3`` as ``synth --s0=-1e3`` for each numeric synth flag, or a prefix of one.

    argparse reads a dash-led token as an option unless it looks like
    ``-1000`` or ``-1.5``, so a negative value in exponent form would be
    refused as a missing argument. argparse resolves a prefix as it does in
    the joined spelling; one that fits another option too is ambiguous in both.
    """
    if argv[:1] != ["synth"]:
        return argv
    out: list[str] = []
    for arg in argv:
        if out and _names_synth_number(out[-1]) and arg.startswith("-") and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _names_synth_number(arg: str) -> bool:
    return len(arg) > 2 and arg.startswith("--") and any(("--" + name).startswith(arg) for name in control_lab.RULES)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``main`` call of a process reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
