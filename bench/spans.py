"""Per-layer spans for the traced run, installed from outside the package.

The package's modules import each other's functions by name, so a span goes
on the name the caller looks up (``cfgctrl.sampler.marginal_velocity``, not
``cfgctrl.flow_systems.marginal_velocity``). Each span records calls,
inclusive time and self time (its time minus the time of the spans nested in
it); some also count the work they were handed. ``Tracer`` puts every
original name back when its ``with`` block ends.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0


def _points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"flow_systems.marginal_velocity.points": int(np.prod(np.shape(x)[:-1]))}


def _batch(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    return {"sampler.traj_steps": cfg.sampler.trajectories * cfg.sampler.steps,
            "sampler.diverged": result.n_divergent}


def _text_bytes(metric):
    return lambda args, kwargs, result: {metric: len(result.encode("utf-8"))}


def _sliding_steps(args, kwargs, result):
    return {"control_lab.steps": args[1] if len(args) > 1 else kwargs["steps"]}


# (cfgctrl module, name its callers look up, span name, counter of work handed in)
SPANS = (
    ("cli", "main", "cli.main", None),
    ("config", "load_config", "config.load_config", None),
    ("config", "build_system", "config.build_system", None),
    ("sampler", "Rng", "numerics.Rng", None),
    ("control_lab", "Rng", "numerics.Rng", None),
    ("control_lab", "spectral_norm", "numerics.spectral_norm", None),
    ("sampler", "marginal_velocity", "flow_systems.marginal_velocity", _points),
    ("sampler", "apply_controller", "guidance.apply_controller", None),
    ("sampler", "run_batch", "sampler.run_batch", _batch),
    ("cli", "run_batch", "sampler.run_batch", _batch),
    ("cli", "traces_to_csv", "sampler.traces_to_csv", _text_bytes("sampler.traces_to_csv.bytes")),
    ("cli", "traces_to_json", "sampler.traces_to_json", _text_bytes("sampler.traces_to_json.bytes")),
    ("metrics", "quality_report", "metrics.quality_report", None),
    ("metrics", "phase_plane", "metrics.phase_plane", None),
    ("svgplot", "line_chart", "svgplot.line_chart", _text_bytes("svgplot.bytes")),
    ("svgplot", "scatter_chart", "svgplot.scatter_chart", _text_bytes("svgplot.bytes")),
    ("control_lab", "simulate_sliding", "control_lab.simulate_sliding", _sliding_steps),
    ("control_lab", "corridor_sweep", "control_lab.corridor_sweep", None),
)

# Per-layer metrics and their units, in report order.
LAYER_UNITS = {
    "import.cfgctrl_s": "s",
    "import.numpy_s": "s",
    "config.load_config.busy_s": "s",
    "config.build_system.calls": "count",
    "config.build_system.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "cli.files_written": "count",
    "cli.bytes_written": "bytes",
    "numerics.Rng.calls": "count",
    "numerics.Rng.busy_s": "s",
    "numerics.spectral_norm.calls": "count",
    "numerics.spectral_norm.busy_s": "s",
    "flow_systems.marginal_velocity.calls": "count",
    "flow_systems.marginal_velocity.points": "count",
    "flow_systems.marginal_velocity.busy_s": "s",
    "flow_systems.marginal_velocity.ns_per_point": "ns",
    "guidance.apply_controller.calls": "count",
    "guidance.apply_controller.self_s": "s",
    "sampler.run_batch.calls": "count",
    "sampler.run_batch.busy_s": "s",
    "sampler.run_batch.self_s": "s",
    "sampler.traj_steps": "count",
    "sampler.diverged": "count",
    "sampler.traces_to_csv.busy_s": "s",
    "sampler.traces_to_csv.bytes": "bytes",
    "sampler.traces_to_json.busy_s": "s",
    "sampler.traces_to_json.bytes": "bytes",
    "metrics.quality_report.calls": "count",
    "metrics.quality_report.busy_s": "s",
    "metrics.phase_plane.busy_s": "s",
    "svgplot.line_chart.busy_s": "s",
    "svgplot.scatter_chart.busy_s": "s",
    "svgplot.bytes": "bytes",
    "control_lab.simulate_sliding.calls": "count",
    "control_lab.simulate_sliding.self_s": "s",
    "control_lab.steps": "count",
    "control_lab.corridor_sweep.busy_s": "s",
    "trace.overhead_s": "s",
}


def wrapped_names() -> dict[tuple[str, str], object]:
    """The objects currently bound to every name the tracer wraps."""
    return {(m, a): getattr(importlib.import_module(f"cfgctrl.{m}"), a) for m, a, _, _ in SPANS}


class Tracer:
    """Span statistics and counts, collected while installed as a ``with`` block."""

    def __init__(self):
        self.stats: dict[str, Stat] = {name: Stat() for _, _, name, _ in SPANS}
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name, counter in SPANS:
                mod = importlib.import_module(f"cfgctrl.{module}")
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._span(original, self.stats[name], counter))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _span(self, fn, stat: Stat, counter):
        open_spans, counts = self._open, self.counts

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat.calls += 1
                stat.busy_s += elapsed
                stat.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return span

    def layer_metrics(self, imports: dict[str, float], files: int, nbytes: int, overhead_s: float) -> dict[str, float]:
        """Every metric of ``LAYER_UNITS`` from the spans, counts and the given extras."""
        s, c = self.stats, self.counts
        field = s["flow_systems.marginal_velocity"]
        points = c["flow_systems.marginal_velocity.points"]
        values = {
            "import.cfgctrl_s": imports["cfgctrl_s"],
            "import.numpy_s": imports["numpy_s"],
            "cli.self_s": s["cli.main"].self_s,
            "cli.files_written": files,
            "cli.bytes_written": nbytes,
            "flow_systems.marginal_velocity.ns_per_point": field.busy_s * 1e9 / points if points else 0.0,
            "guidance.apply_controller.self_s": s["guidance.apply_controller"].self_s,
            "sampler.run_batch.self_s": s["sampler.run_batch"].self_s,
            "control_lab.simulate_sliding.self_s": s["control_lab.simulate_sliding"].self_s,
            "trace.overhead_s": overhead_s,
        }
        for metric in LAYER_UNITS:
            if metric in values:
                continue
            span, _, stat_field = metric.rpartition(".")
            if span in s and stat_field in ("calls", "busy_s"):
                values[metric] = getattr(s[span], stat_field)
            else:
                values[metric] = c[metric]
        return values
