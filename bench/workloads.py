"""The benchmark's three workloads: what one operation runs and how its output is checked.

Each workload turns the run seed into the configs and flags the program
receives, runs operations through the package's public entry points, and
checks every output against values the benchmark derives on its own
(row counts, closed-form moments and bounds), never against the program's
own verdicts alone.

A workload exposes:
  ``cycle``         the operations of one pass, as (kind, arg) pairs;
  ``warmup``        how many operations of the cycle run before timing;
  ``pace_kernel``   the bench/pace.py kernel that paces its timed calls;
  ``cycle_s``       nominal wall time of one cycle, checks included, on the
                    reference machine (sets how many cycles ``--seconds`` buys);
  ``trace_cycles``  how many cycles the traced run repeats;
  ``setup_body``    code that loads the workload's config and builds its
                    system in a fresh interpreter (for ``setup_s``);
  ``prepare``       untimed: builds the inputs of one operation;
  ``execute``       timed: runs it, passing each timed call through the
                    clock it is given (``timed(fn, *args)``);
  ``check``         untimed: validates the output, returns an ``Outcome``;
  ``cleanup``       untimed: removes what the operation wrote.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cfgctrl import cli, config, metrics, sampler

CONTROLLERS = ("cfg", "weight_schedule", "apg", "cfg_zero_star", "rectified_cfgpp", "smc")
# Controller blocks at the CLI's compare defaults for w = 5.
COMPARE_BLOCKS = {
    "cfg": {"type": "cfg", "w": 5.0},
    "weight_schedule": {"type": "weight_schedule", "w_max": 5.0, "shape": "cosine"},
    "apg": {"type": "apg", "w": 5.0, "eta": 0.5},
    "cfg_zero_star": {"type": "cfg_zero_star", "w": 5.0},
    "rectified_cfgpp": {"type": "rectified_cfgpp", "w": 5.0},
    "smc": {"type": "smc", "w": 5.0, "lambda": 6.0, "k": 0.1, "boundary_layer": 0.0},
}
SWEEP_W = [1, 2, 5, 10, 15]
W2_TOLERANCE = 0.1  # acceptance test A7's bound for exact sampling
NUMPY_SCALAR = re.compile(r"np\.float64\(([^)]*)\)")
SERIES_DEFECT = "synth series.csv holds numpy scalar reprs such as np.float64(2.0) instead of plain numbers"


class CheckFailed(Exception):
    """An operation finished, but its output is wrong."""


@dataclass
class Outcome:
    """What a checked operation produced."""

    steps: int                                           # integration steps completed
    blobs: dict[str, bytes] = field(default_factory=dict)  # artifacts and quality numbers
    files: int = 0                                       # files written
    nbytes: int = 0                                      # bytes written
    defects: tuple[str, ...] = ()                        # known program defects seen in the output


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of operation ``index``: a fixed function of the run seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI command; returns its exit code and captured output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _finite_json(text: str, name: str):
    def reject(token):
        raise CheckFailed(f"{name}: non-finite number {token}")

    def walk(node):
        if isinstance(node, float):
            _expect(math.isfinite(node), f"{name}: non-finite number")
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)
        elif isinstance(node, list):
            for value in node:
                walk(value)

    try:
        data = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{name}: invalid JSON: {exc}") from exc
    walk(data)
    return data


def _finite_csv(text: str, name: str, header: list[str], words: set[str] = frozenset()) -> list[list[str]]:
    """Rows of a CSV whose cells are blank, finite numbers or one of ``words``."""
    rows = list(csv.reader(io.StringIO(text)))
    _expect(bool(rows) and rows[0] == header, f"{name}: header {rows[:1]} != {header}")
    for row in rows[1:]:
        _expect(len(row) == len(header), f"{name}: row {row} has {len(row)} cells")
        for cell in row:
            if cell == "" or cell in words:
                continue
            try:
                value = float(cell)
            except ValueError:
                raise CheckFailed(f"{name}: unexpected cell {cell!r}") from None
            _expect(math.isfinite(value), f"{name}: non-finite cell {cell!r}")
    return rows[1:]


def _svg(text: str, name: str) -> None:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"{name}: invalid SVG: {exc}") from exc
    _expect(root.tag.endswith("svg"), f"{name}: root element {root.tag}")
    _expect(re.search(r"\b(nan|inf)\b", text, re.IGNORECASE) is None, f"{name}: non-finite coordinate")


def _read_artifacts(out: Path, kind: str, suffixes: set[str]) -> tuple[str, dict[str, str]]:
    """Texts of ``<kind>_<tag>_<suffix>`` files; exactly the expected suffixes, one tag."""
    _expect(out.is_dir(), f"no output directory {out.name}")
    texts, tags = {}, set()
    for path in sorted(out.iterdir()):
        match = re.fullmatch(rf"{kind}_([0-9a-f]{{12}})_(.+)", path.name)
        _expect(match is not None, f"unexpected file {path.name}")
        tags.add(match.group(1))
        texts[match.group(2)] = path.read_text(encoding="utf-8")
    _expect(len(tags) == 1, f"artifact tags {sorted(tags)}")
    _expect(set(texts) == suffixes, f"artifacts {sorted(texts)} != {sorted(suffixes)}")
    return tags.pop(), texts


def _outcome(out: Path, output: str, steps: int, defects: tuple[str, ...] = ()) -> Outcome:
    blobs = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    nbytes = sum(len(b) for b in blobs.values())
    files = len(blobs)
    blobs["stdout"] = output.encode()
    return Outcome(steps, blobs, files, nbytes, defects)


def _target_moments(raw: dict) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and covariance of the raw config's target condition."""
    system = raw["system"]
    comps = [system["components"][i] for i in system["conditions"][system["target"]]]
    weights = np.array([c["weight"] for c in comps], dtype=float)
    weights /= weights.sum()
    means = np.array([c["mean"] for c in comps], dtype=float)
    covs = [np.diag(c["cov"]["diag"]) for c in comps]  # the reference system uses diagonal covariances
    mean = weights @ means
    cov = sum(w * (c + np.outer(m - mean, m - mean)) for w, m, c in zip(weights, means, covs))
    return mean, cov


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    val, vec = np.linalg.eigh(0.5 * (m + m.T))
    return (vec * np.sqrt(np.clip(val, 0.0, None))) @ vec.T


def gaussian_w2(samples: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> float:
    """2-Wasserstein distance between the samples' fitted Gaussian and N(mean, cov)."""
    fit_mean = samples.mean(axis=0)
    centered = samples - fit_mean
    fit_cov = centered.T @ centered / (len(samples) - 1)
    root = _psd_sqrt(cov)
    cross = _psd_sqrt(root @ fit_cov @ root)
    total = ((fit_mean - mean) ** 2).sum() + np.trace(fit_cov) + np.trace(cov) - 2.0 * np.trace(cross)
    return math.sqrt(max(float(total), 0.0))


class CliReference:
    """run / compare / sweep on the reference config, 50 trajectories, 64 Euler steps, all formats."""

    name = "cli_reference"
    pace_kernel = "small"
    warmup = 3
    cycle_s = 0.6
    trace_cycles = 4
    cycle = (("run", None), ("compare", None), ("sweep", None))
    suffixes = {
        "run": {"traces.csv", "report.json", "traces.json", "e_norm.svg", "phase.svg"},
        "compare": {"table.csv", "report.json", "e_norm.svg"},
        "sweep": {"table.csv", "table.json", "w2.svg", "alignment.svg", "oversaturation.svg", "e_decay_ratio.svg"},
    }
    table_header = ["status", "w2", "alignment", "oversaturation", "e_decay_ratio", "mean_reach_step", "n_divergent"]

    def __init__(self, root: Path, seed: int, work: Path, tiny: bool = False):
        raw = json.loads((root / "configs" / "reference.json").read_text(encoding="utf-8"))
        if tiny:
            raw["sampler"].update(trajectories=4, steps=8)
        raw["sweep"] = {"parameter": "w", "values": SWEEP_W}
        self.trajectories = raw["sampler"]["trajectories"]
        self.steps = raw["sampler"]["steps"]
        self.seed = seed
        self.work = work
        self.config_path = work / "cli_reference.json"
        self.config_path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
        self.setup_body = (
            f"cfg = cfgctrl.load_config({str(self.config_path)!r})\n"
            "cfgctrl.build_system(cfg.system)\n"
        )

    def prepare(self, spec, index: int):
        kind, _ = spec
        out = self.work / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        argv = [kind, "--config", str(self.config_path), "--out", str(out),
                "--seed", str(op_seed(self.name, self.seed, index))]
        if kind == "compare":
            argv += ["--controllers", ",".join(CONTROLLERS)]
        return kind, argv, out

    def execute(self, prepared, timed):
        return timed(run_cli, prepared[1])

    def check(self, prepared, executed) -> Outcome:
        kind, _, out = prepared
        code, output = executed
        _expect(code == 0, f"exit code {code}: {output.strip()[-300:]}")
        tag, texts = _read_artifacts(out, kind, self.suffixes[kind])
        _expect(output.startswith(f"{kind} {tag}: "), f"unexpected output {output.strip()[:200]!r}")
        for suffix, text in texts.items():
            if suffix.endswith(".svg"):
                _svg(text, suffix)
        per_batch = self.trajectories * self.steps
        if kind == "run":
            rows = _finite_csv(texts["traces.csv"], "traces.csv",
                               ["run_id", "step", "tau", "e_norm", "s_norm", "lyapunov", "vhat_norm"])
            _expect(len(rows) == per_batch, f"traces.csv has {len(rows)} rows, expected {per_batch}")
            traces = _finite_json(texts["traces.json"], "traces.json")
            _expect(len(traces) == self.trajectories, f"traces.json has {len(traces)} trajectories")
            _expect(all(len(t["steps"]) == self.steps for t in traces), "traces.json step count")
            report = _finite_json(texts["report.json"], "report.json")
            _expect(report["n_divergent"] == 0, f"{report['n_divergent']} divergent trajectories")
            return _outcome(out, output, per_batch)
        first = "controller" if kind == "compare" else "value"
        expected = list(CONTROLLERS) if kind == "compare" else [repr(float(w)) for w in SWEEP_W]
        rows = _finite_csv(texts["table.csv"], "table.csv", [first] + self.table_header, set(CONTROLLERS) | {"ok"})
        _expect([r[0] for r in rows] == expected, f"table rows {[r[0] for r in rows]}")
        _expect(all(r[1] == "ok" and r[-1] == "0" for r in rows), "a table row failed or diverged")
        _finite_json(texts["report.json" if kind == "compare" else "table.json"], "table json")
        return _outcome(out, output, len(rows) * per_batch)

    def cleanup(self, prepared) -> None:
        shutil.rmtree(prepared[2], ignore_errors=True)


class BatchFields:
    """run_batch + quality_report at 10,000 trajectories and 64 Heun steps, no export."""

    name = "batch_fields"
    pace_kernel = "wide"
    warmup = 1
    cycle_s = 10.0
    trace_cycles = 1
    cycle = tuple((c, None) for c in CONTROLLERS) + (("cfg_w1", None),)

    def __init__(self, root: Path, seed: int, work: Path, tiny: bool = False):
        raw = json.loads((root / "configs" / "reference.json").read_text(encoding="utf-8"))
        raw["sampler"].update(scheme="heun", trajectories=2000 if tiny else 10_000, steps=16 if tiny else 64)
        self.trajectories = raw["sampler"]["trajectories"]
        self.steps = raw["sampler"]["steps"]
        self.seed = seed
        self.target_mean, self.target_cov = _target_moments(raw)
        blocks = dict(COMPARE_BLOCKS, cfg_w1={"type": "cfg", "w": 1.0})
        self.configs = {}
        for kind, block in blocks.items():
            path = work / f"batch_fields_{kind}.json"
            path.write_text(json.dumps(dict(raw, controller=block), indent=2), encoding="utf-8")
            self.configs[kind] = config.load_config(str(path))
        self.system = config.build_system(self.configs["cfg"].system)
        self.setup_body = (
            f"cfg = cfgctrl.load_config({str(work / 'batch_fields_cfg.json')!r})\n"
            "cfgctrl.build_system(cfg.system)\n"
        )

    def prepare(self, spec, index: int):
        kind, _ = spec
        return kind, config.with_seed(self.configs[kind], op_seed(self.name, self.seed, index))

    def execute(self, prepared, timed):
        cfg = prepared[1]
        result = timed(sampler.run_batch, cfg)
        return result, timed(metrics.quality_report, result, self.system, cfg.system.target)

    def check(self, prepared, executed) -> Outcome:
        kind, _ = prepared
        result, report = executed
        _expect(result.n_divergent == 0, f"{result.n_divergent} trajectories diverged")
        finals = result.finals
        _expect(finals.shape == (self.trajectories, self.system.dim), f"finals shape {finals.shape}")
        _expect(bool(np.isfinite(finals).all()), "non-finite final sample")
        numbers = report.to_dict()
        _expect(all(v is not None and math.isfinite(v) for v in numbers.values()), f"report {numbers}")
        _expect(0.0 <= report.alignment <= 1.0, f"alignment {report.alignment}")
        w2 = gaussian_w2(finals, self.target_mean, self.target_cov)
        _expect(abs(w2 - report.w2) <= 1e-9 * max(1.0, w2), f"reported w2 {report.w2} != recomputed {w2}")
        if kind == "cfg_w1":
            # w = 1 follows the conditional field alone, which transports noise to the target exactly.
            _expect(w2 <= W2_TOLERANCE, f"cfg w=1 W2 {w2:.4f} > {W2_TOLERANCE}")
        blobs = {"report.json": json.dumps(numbers, sort_keys=True).encode(), "finals": finals.tobytes()}
        return Outcome(self.trajectories * self.steps, blobs)

    def cleanup(self, prepared) -> None:
        pass


class SynthLab:
    """cfgctrl synth --dim 4 --rho 0.5 --gain-deviation seeded: a single run, then a corridor sweep."""

    name = "synth_lab"
    pace_kernel = "small"
    # The synth defaults the checks below rely on.
    dim, w, delta, rho, k, dt, s0 = 4, 5.0, 0.5, 0.5, 0.5, 0.01, 2.0
    k_values_arg = "0.02,0.3,1.0,400"
    k_values = tuple(float(k) for k in k_values_arg.split(","))
    # One operation is a single run followed by a corridor sweep on the same gain
    # matrix, two synth commands. A sweep costs four single runs, so timing each
    # command alone would put the median in the gap between the two clusters.
    # A 2000-step run costs 0.13-0.8 s depending on its gain matrix (the power
    # iteration count of spectral_norm); a run has time for too few matrices to
    # average that out. So every run repeats the same odd-sized panel of synth
    # seeds, which puts the median on one panel member's cost, and the run seed
    # sets the order of the panel.
    panel = tuple(range(7))
    warmup = 0
    cycle_s = 10.0
    trace_cycles = 1

    def __init__(self, root: Path, seed: int, work: Path, tiny: bool = False):
        self.steps = 400 if tiny else 2000
        panel = self.panel[:1] if tiny else self.panel
        start = seed % len(panel)
        self.cycle = tuple(("single+corridor", s) for s in panel[start:] + panel[:start])
        self.work = work
        self.base = ["synth", "--dim", str(self.dim), "--rho", str(self.rho), "--gain-deviation", "seeded",
                     "--steps", str(self.steps)]
        self.setup_body = (
            "from cfgctrl import cli, control_lab\n"
            f"args = cli.build_parser().parse_args({self.base + ['--seed', str(self.cycle[0][1])]!r})\n"
            "s0 = numpy.zeros(args.dim)\n"
            "s0[0] = args.s0\n"
            "control_lab.PerturbedDynamics(dim=args.dim, w=args.w, delta=args.delta, rho=args.rho, k=args.k,\n"
            "    dt=args.dt, s0=s0, drift=args.drift, gain_deviation=args.gain_deviation, seed=args.seed)\n"
        )

    def _bounds(self, k: float) -> tuple[float, float, float]:
        """(eta, largest step, radius beyond which energy must fall) at switching gain k.

        With Delta = drift - k (w I + dG) sign(s): s.Delta <= -eta |s| for
        eta = k (w - rho sqrt(D)) - delta, and |Delta| <= k (w + rho) sqrt(D) + delta.
        One Euler step changes the energy 0.5 |s|^2 by at most
        -dt eta |s| + 0.5 dt^2 |Delta|^2, so it falls wherever |s| > dt |Delta|^2 / (2 eta).
        """
        eta = k * (self.w - self.rho * math.sqrt(self.dim)) - self.delta
        step = k * (self.w + self.rho) * math.sqrt(self.dim) + self.delta
        return eta, self.dt * step, self.dt * step**2 / (2.0 * eta)

    def prepare(self, spec, index: int):
        out = self.work / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        argv = self.base + ["--seed", str(spec[1])]
        return out, [argv + ["--out", str(out / "single")],
                     argv + ["--out", str(out / "corridor"), "--corridor", "--k-values", self.k_values_arg]]

    def execute(self, prepared, timed):
        return [timed(run_cli, argv) for argv in prepared[1]]

    def check(self, prepared, executed) -> Outcome:
        out = prepared[0]
        single, corridor = self._check_single(out / "single", *executed[0]), self._check_corridor(out / "corridor", *executed[1])
        return Outcome(
            single.steps + corridor.steps,
            {f"{part}/{name}": blob for part, o in (("single", single), ("corridor", corridor)) for name, blob in o.blobs.items()},
            single.files + corridor.files,
            single.nbytes + corridor.nbytes,
            single.defects + corridor.defects,
        )

    def _check_single(self, out: Path, code: int, output: str) -> Outcome:
        _expect(code == 0, f"single run exit code {code}: {output.strip()[-300:]}")
        _, texts = _read_artifacts(out, "synth", {"series.csv", "s_norm.svg"})
        _svg(texts["s_norm.svg"], "s_norm.svg")
        # Under numpy >= 2 the program writes series values as repr(np.float64(x)),
        # "np.float64(2.0)" instead of "2.0". That defect is reported with the
        # result; the numbers inside are still checked.
        series, wrapped = NUMPY_SCALAR.subn(r"\1", texts["series.csv"])
        rows = _finite_csv(series, "series.csv", ["step", "s_norm", "lyapunov"])
        _expect(len(rows) == self.steps + 1, f"series.csv has {len(rows)} rows")
        s_norm = np.array([float(r[1]) for r in rows])
        # Finite-time reaching bound |s0| / eta and energy audit (acceptance A3).
        eta, _, radius = self._bounds(self.k)
        band = 1.5 * self.dt * self.w * self.k
        inside = np.nonzero(s_norm <= band)[0]
        _expect(inside.size > 0, "never reached the band")
        reach = int(inside[0])
        _expect(reach * self.dt <= 1.05 * self.s0 / eta, f"reach step {reach} beyond the bound")
        energy = 0.5 * s_norm**2
        rises = int(((np.diff(energy) > 0.0) & (s_norm[:-1] > max(band, radius))).sum())
        _expect(rises == 0, f"{rises} energy increases where |s| > {max(band, radius):.4g}")
        _expect(f"reached band at step {reach} " in output and "within bound: yes" in output,
                f"unexpected output {output.strip()[-200:]!r}")
        return _outcome(out, output, self.steps, (SERIES_DEFECT,) if wrapped else ())

    def _check_corridor(self, out: Path, code: int, output: str) -> Outcome:
        _expect(code == 0, f"corridor sweep exit code {code}: {output.strip()[-300:]}")
        k_lo, k_hi = self.delta / self.w, 2.0 * self.s0 / (self.w * self.dt)
        _, texts = _read_artifacts(out, "synth", {"corridor.csv", "osc.svg"})
        _svg(texts["osc.svg"], "osc.svg")
        rows = _finite_csv(texts["corridor.csv"], "corridor.csv",
                           ["k", "reached", "reach_step", "residual_band", "osc_amplitude"], {"true", "false"})
        _expect([float(r[0]) for r in rows] == list(self.k_values), f"corridor rows {[r[0] for r in rows]}")
        for k_text, reached, _, residual, osc in rows:
            k = float(k_text)
            if k < k_lo:  # below the corridor the drift wins (acceptance A4)
                _expect(reached == "false", f"k={k} below the corridor converged")
            elif k < k_hi:
                # Inside, the state reaches the band and, since energy falls beyond the
                # radius of _bounds, never strays more than one step past the larger of
                # the two. (A4's 1-D limit, the band itself, does not hold for D = 4.)
                _, step, radius = self._bounds(k)
                limit = max(1.5 * self.dt * self.w * k, radius) + step
                _expect(reached == "true" and float(residual) <= limit,
                        f"k={k} inside the corridor: reached={reached} residual={residual} limit={limit:.4g}")
            else:  # above, every step jumps by dt * |drift - k (w I + dG) sign(s)|
                lo = self.dt * (k * (self.w - self.rho) * math.sqrt(self.dim) - self.delta)
                hi = self.dt * (k * (self.w + self.rho) * math.sqrt(self.dim) + self.delta)
                _expect(reached == "true" and lo <= float(osc) <= hi,
                        f"k={k} above the corridor: oscillation {osc} outside [{lo:.4g}, {hi:.4g}]")
        _expect(f"stability corridor: k in ({k_lo:.6g}, {k_hi:.6g})" in output,
                f"unexpected output {output.strip()[:200]!r}")
        return _outcome(out, output, len(self.k_values) * self.steps)

    def cleanup(self, prepared) -> None:
        shutil.rmtree(prepared[0], ignore_errors=True)


WORKLOADS = {wl.name: wl for wl in (CliReference, BatchFields, SynthLab)}
