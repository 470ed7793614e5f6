"""Deterministic ODE sampling with controller hooks and full trace recording.

Trajectories integrate the guided velocity field over a uniform time grid
tau in [clamp, 1 - clamp] with a fixed-step Euler or Heun scheme. Every step
is logged: time, gap norm, sliding-surface norm (smc runs), and applied
velocity norm. Everything is deterministic given (seed, config): trajectory
i draws its start point from stream i of the master seed, and the
integration itself is noise-free.

Batches run in lockstep as array rows, which keeps per-step numpy work
vectorized; splitting a batch across worker threads cannot change any row's
arithmetic, so parallel and serial runs produce identical results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import config as _config
from .flow_systems import FlowSystem, velocity_pair
from .flow_systems import marginal_velocity  # noqa: F401  (a name bench/spans.py wraps)
from .guidance import ControlLaw, StepContext, apply_controller
from .numerics import Rng, row_norm, stream_normals

DIVERGENCE_NORM = 1e6


class DivergenceError(RuntimeError):
    """A trajectory left the finite-state envelope."""

    def __init__(self, step: int, run_id: int = 0):
        super().__init__(f"trajectory {run_id} diverged at step {step}")
        self.step = step
        self.run_id = run_id


@dataclass(frozen=True)
class IntegratorSpec:
    """Fixed-step scheme over the clamped time interval."""

    scheme: str = "euler"
    steps: int = 64
    tau_clamp: float = 1e-4

    def __post_init__(self):
        if self.scheme not in ("euler", "heun"):
            raise ValueError(f"unknown integration scheme {self.scheme!r}")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")
        if not 0.0 < self.tau_clamp < 0.5:
            raise ValueError("tau clamp must lie in (0, 0.5)")

    @property
    def dtau(self) -> float:
        return (1.0 - 2.0 * self.tau_clamp) / self.steps

    def tau_grid(self) -> np.ndarray:
        """Left endpoints of the integration steps."""
        return self.tau_clamp + self.dtau * np.arange(self.steps)


@dataclass(eq=False)
class Trace:
    """Per-step record of one trajectory plus its final sample."""

    run_id: int
    tau: np.ndarray
    e_norm: np.ndarray
    vhat_norm: np.ndarray
    x_final: np.ndarray
    s_norm: np.ndarray | None = None
    x_path: np.ndarray | None = None
    s_path: np.ndarray | None = None

    @property
    def steps(self) -> int:
        return len(self.tau)

    @property
    def dtau(self) -> float:
        return float(self.tau[1] - self.tau[0])

    @property
    def lyapunov(self) -> np.ndarray | None:
        """Surface energy 0.5 * |s|^2 per step (smc runs only)."""
        if self.s_norm is None:
            return None
        return 0.5 * self.s_norm**2


@dataclass(eq=False)
class RunResult:
    """Traces of a batch, divergence flags, and the config fingerprint."""

    traces: list[Trace]
    divergences: dict[int, int]  # run_id -> step at which the state blew up
    fingerprint: str
    n_trajectories: int

    @property
    def n_divergent(self) -> int:
        return len(self.divergences)

    @property
    def finals(self) -> np.ndarray:
        if not self.traces:
            return np.empty((0, 0))
        return np.stack([t.x_final for t in self.traces])


def _integrate_rows(
    system: FlowSystem,
    law: ControlLaw,
    integ: IntegratorSpec,
    cond: str | None,
    x0: np.ndarray,
    run_ids: list[int],
    record_x: bool,
) -> tuple[list[Trace], dict[int, int]]:
    """Advance a block of trajectories in lockstep; law must be freshly reset."""
    n, dim = x0.shape
    n_steps = integ.steps
    taus = integ.tau_grid()
    dtau = integ.dtau
    heun = integ.scheme == "heun"
    has_surface = law.sliding is not None

    x = x0.copy()
    alive = np.ones(n, dtype=bool)
    div_step: dict[int, int] = {}
    e_hist = np.zeros((n_steps, n))
    v_hist = np.zeros((n_steps, n))
    s_hist = np.zeros((n_steps, n)) if has_surface else None
    x_hist = np.zeros((n_steps, n, dim)) if record_x else None
    sv_hist = np.zeros((n_steps, n, dim)) if (record_x and has_surface) else None

    def evaluator(points: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        return velocity_pair(system, points, t, cond)

    def mark_divergent(bad: np.ndarray, step: int) -> None:
        for row in np.nonzero(bad)[0]:
            div_step[run_ids[row]] = step
        alive[bad] = False
        x[bad] = 0.0
        if law.sliding is not None and law.sliding.e_prev is not None:
            law.sliding.e_prev[bad] = 0.0

    with np.errstate(all="ignore"):
        for i in range(n_steps):
            t = float(taus[i])
            ctx = StepContext(i, n_steps, t, dtau, law.w)
            v_c, v_u = evaluator(x, t)
            v_hat = apply_controller(law, v_c, v_u, x, ctx, evaluator)
            e_hist[i] = row_norm(v_c - v_u)
            if has_surface:
                s_hist[i] = row_norm(law.sliding.s)
                if sv_hist is not None:
                    sv_hist[i] = law.sliding.s
            if record_x:
                x_hist[i] = x
            if heun:
                x_pred = x + dtau * v_hat
                bad = alive & ~(row_norm(x_pred) <= DIVERGENCE_NORM)
                if bad.any():
                    mark_divergent(bad, i)
                    x_pred[~alive] = 0.0
                ctx2 = StepContext(i, n_steps, t + dtau, dtau, law.w)
                v_c2, v_u2 = evaluator(x_pred, t + dtau)
                v_hat2 = apply_controller(law, v_c2, v_u2, x_pred, ctx2, evaluator, update_state=False)
                v_use = 0.5 * (v_hat + v_hat2)
            else:
                v_use = v_hat
            v_hist[i] = row_norm(v_use)
            x_new = x + dtau * v_use
            # NaN, +-inf and an overflowing square all fail the comparison
            bad = alive & ~(row_norm(x_new) <= DIVERGENCE_NORM)
            x = np.where(alive[:, None], x_new, x)
            if bad.any():
                mark_divergent(bad, i)

    # One transposing copy per history; each trace gets its own row of it.
    tau_rows = np.tile(taus, (n, 1))
    e_rows, v_rows, s_rows, x_rows, sv_rows = (
        None if h is None else np.swapaxes(h, 0, 1).copy() for h in (e_hist, v_hist, s_hist, x_hist, sv_hist)
    )
    traces = [
        Trace(
            run_id=run_ids[row],
            tau=tau_rows[row],
            e_norm=e_rows[row],
            vhat_norm=v_rows[row],
            x_final=x[row],
            s_norm=s_rows[row] if s_rows is not None else None,
            x_path=x_rows[row] if x_rows is not None else None,
            s_path=sv_rows[row] if sv_rows is not None else None,
        )
        for row in np.flatnonzero(alive).tolist()
    ]
    return traces, div_step


def sample_trajectory(
    system: FlowSystem,
    law: ControlLaw,
    integ: IntegratorSpec,
    cond: str | None,
    rng: Rng,
    record_x: bool = False,
) -> Trace:
    """Integrate one trajectory from a fresh standard-normal start point.

    Raises :class:`DivergenceError` naming the step index if the state
    becomes non-finite or leaves the |x| <= 1e6 envelope.
    """
    x0 = rng.standard_normal(system.dim).reshape(1, -1)
    law.reset()
    traces, divergences = _integrate_rows(system, law, integ, cond, x0, [0], record_x)
    if divergences:
        raise DivergenceError(divergences[0], 0)
    return traces[0]


def resolve_workers(workers: int | None = None) -> int:
    """Worker count: explicit argument, else the CFGCTRL_THREADS env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get("CFGCTRL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def run_batch(cfg: "_config.ExperimentConfig", workers: int | None = None) -> RunResult:
    """Run the configured batch; divergent trajectories are flagged, not fatal.

    Trajectory i starts from stream i of the master seed, so results do not
    depend on how trajectories are distributed over workers.
    """
    system = _config.build_system(cfg.system)
    integ = IntegratorSpec(cfg.sampler.scheme, cfg.sampler.steps, cfg.sampler.tau_clamp)
    cond = cfg.system.target
    n = cfg.sampler.trajectories
    seed = cfg.sampler.seed
    record_x = cfg.sampler.record_x

    x0 = stream_normals(seed, n, system.dim)
    n_workers = min(resolve_workers(workers), n)
    bounds = np.linspace(0, n, n_workers + 1).astype(int)
    blocks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def run_block(bounds_pair: tuple[int, int]) -> tuple[list[Trace], dict[int, int]]:
        lo, hi = bounds_pair
        law = _config.build_control_law(cfg.controller)
        return _integrate_rows(system, law, integ, cond, x0[lo:hi], list(range(lo, hi)), record_x)

    if len(blocks) == 1:
        results = [run_block(blocks[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(blocks)) as pool:
            results = list(pool.map(run_block, blocks))

    traces: list[Trace] = []
    divergences: dict[int, int] = {}
    for block_traces, block_div in results:
        traces.extend(block_traces)
        divergences.update(block_div)
    traces.sort(key=lambda t: t.run_id)
    return RunResult(
        traces=traces,
        divergences=dict(sorted(divergences.items())),
        fingerprint=_config.fingerprint(cfg),
        n_trajectories=n,
    )


_TRACE_COLUMNS = ("step", "tau", "e_norm", "s_norm", "lyapunov", "vhat_norm")


def _trace_rows(trace: Trace):
    """Per-step values in _TRACE_COLUMNS order; the surface columns are None for non-smc runs."""
    n = trace.steps
    blank = [None] * n
    lyap = trace.lyapunov
    return zip(
        range(n),
        trace.tau.tolist(),
        trace.e_norm.tolist(),
        blank if trace.s_norm is None else trace.s_norm.tolist(),
        blank if lyap is None else lyap.tolist(),
        trace.vhat_norm.tolist(),
    )


def traces_to_csv(traces: list[Trace]) -> str:
    """CSV export, one row per step; surface columns are blank for non-smc runs."""
    lines = ["run_id," + ",".join(_TRACE_COLUMNS)]
    for trace in traces:
        for step, *values in _trace_rows(trace):
            cells = ["" if v is None else repr(v) for v in values]
            lines.append(f"{trace.run_id},{step}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def traces_to_json(traces: list[Trace]) -> str:
    """JSON export mirroring the CSV columns."""
    import json

    payload = [
        {
            "run_id": trace.run_id,
            "steps": [dict(zip(_TRACE_COLUMNS, row)) for row in _trace_rows(trace)],
            "x_final": trace.x_final.tolist(),
        }
        for trace in traces
    ]
    return json.dumps(payload, indent=2) + "\n"
