"""Deterministic ODE sampling with controller hooks and full trace recording.

Trajectories integrate the guided velocity field over a uniform time grid
tau in [clamp, 1 - clamp] with a fixed-step Euler or Heun scheme. Every step
is logged: time, gap norm, sliding-surface norm (smc runs), and applied
velocity norm. Everything is deterministic given (seed, config): trajectory
i draws its start point from stream i of the master seed, and the
integration itself is noise-free.

Batches run in lockstep as array rows, which keeps per-step numpy work
vectorized. One config's batch under several controller blocks runs in one
such pass (:func:`run_batches`), one block of rows per law, all on the
config's system, time grid and start points; a sweep (:func:`run_sweep`)
steps one law, its swept gain a per-row column, over a block per value. With
diagonal covariances, stacking blocks changes no row's arithmetic, so each
block equals a run of its law alone bit for bit; with a full covariance a
row's bits can depend on the batch width, since BLAS picks its kernels by width.
A batch's result keeps these rows as read-only arrays over its surviving
trajectories, and the CSV and JSON exports read those arrays through one
table of cells per batch; per-trajectory :class:`Trace` views are built
only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import config as _config
from .flow_systems import FlowSystem, velocity_pair
from .flow_systems import marginal_velocity  # noqa: F401  (a name bench/spans.py wraps)
from .guidance import CONTROLLERS, ControlLaw, StepContext, apply_controller
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


@dataclass(eq=False)
class RunResult:
    """A batch as read-only arrays over its surviving rows, its divergence flags and flow system.

    Row i of every column belongs to trajectory ``run_ids[i]``; the ids
    ascend and leave out exactly the keys of ``divergences``. ``s_norm`` and
    ``s_path`` are None without a sliding surface, ``x_path`` and ``s_path``
    without ``record_x``.
    """

    run_ids: np.ndarray  # (n_alive,)
    tau: np.ndarray  # (steps,), shared by every row
    e_norm: np.ndarray  # (n_alive, steps)
    vhat_norm: np.ndarray  # (n_alive, steps)
    finals: np.ndarray  # (n_alive, dim)
    s_norm: np.ndarray | None  # (n_alive, steps)
    x_path: np.ndarray | None  # (n_alive, steps, dim)
    s_path: np.ndarray | None  # (n_alive, steps, dim)
    divergences: dict[int, int]  # run_id -> step at which the state blew up, in run_id order
    system: FlowSystem
    n_trajectories: int

    @property
    def n_divergent(self) -> int:
        return len(self.divergences)

    @cached_property
    def traces(self) -> list[Trace]:
        """One Trace per surviving row, built on first read; its arrays are views of the columns."""
        optional = (repeat(None) if column is None else column for column in (self.s_norm, self.x_path, self.s_path))
        rows = zip(self.run_ids.tolist(), self.e_norm, self.vhat_norm, self.finals, *optional)
        return [Trace(run_id, self.tau, *row) for run_id, *row in rows]

    @cached_property
    def _cells(self) -> list[tuple[tuple[str, ...], bool] | None]:
        """Export cells of the columns after ``step``, each with whether its source is all finite; None for no surface.

        ``tau`` holds one row of cells, the other columns every row's, row
        after row. Both exporters read these, so exporting a batch as CSV
        and as JSON formats each value once.
        """
        lyapunov = None if self.s_norm is None else 0.5 * self.s_norm**2
        return [
            None if values is None else (_format(values.ravel()), bool(np.isfinite(values).all()))
            for values in (self.tau, self.e_norm, self.s_norm, lyapunov, self.vhat_norm)
        ]


def _integrate_rows(
    system: FlowSystem,
    laws: list[ControlLaw | Exception],
    integ: IntegratorSpec,
    cond: str | None,
    x0: np.ndarray,
    record_x: bool,
    parts: int = 1,
) -> list[RunResult | Exception]:
    """Advance ``parts`` blocks of trajectories per law in lockstep; laws must be freshly reset.

    Every block starts from ``x0``, whose row i is trajectory i; block b holds
    rows ``b*n`` to ``(b+1)*n``, and ``laws[j]`` steps blocks ``j*parts`` to
    ``(j+1)*parts`` as one batch. All rows share each field evaluation and
    each law steps its own rows, so a block's bits equal a run of its law
    alone. Entry b is block b's result or, if its law raised, the exception;
    ``laws[j]`` may already be one, from a law that failed to build, and its
    rows start dead. The other laws' blocks finish.
    """
    n, dim = x0.shape
    n_steps = integ.steps
    taus = integ.tau_grid()
    dtau = integ.dtau
    heun = integ.scheme == "heun"
    blocks = [slice(j * n * parts, (j + 1) * n * parts) for j in range(len(laws))]
    failed = {j: law for j, law in enumerate(laws) if isinstance(law, Exception)}
    has_surface = any(j not in failed and law.sliding is not None for j, law in enumerate(laws))

    # Fortran order: x.T is the field kernel's (d, n) columns without a copy, and its results come back column-ordered
    x = np.asfortranarray(np.tile(x0, (len(laws) * parts, 1)))
    # work arrays in x's layout, written in place every step: at batch size a fresh array costs more than a pass
    x_new = np.empty_like(x)  # holds each step's gap v_c - v_u before its new state
    x_pred = np.empty_like(x) if heun else None
    alive = np.repeat([j not in failed for j in range(len(laws))], n * parts)  # an unbuilt law's rows start dead
    div_step = np.full(len(x), -1)  # the step at which a row left the envelope, -1 while it has not
    # step-major histories, keyed by the result column each becomes; this dict holds the only reference to each
    hist = {"e_norm": np.zeros((n_steps, len(x))), "vhat_norm": np.zeros((n_steps, len(x)))}
    if has_surface:
        hist["s_norm"] = np.zeros((n_steps, len(x)))
    if record_x:
        hist["x_path"] = np.zeros((n_steps, len(x), dim))
    if record_x and has_surface:
        hist["s_path"] = np.zeros((n_steps, len(x), dim))

    def evaluator(points: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        return velocity_pair(system, points, t, cond)

    def guided(step: int, t: float, v_c, v_u, points, update_state: bool) -> np.ndarray | None:
        """Each live law's velocity on its rows and, if the stage updates state, its surface; a raise ends its block."""
        out = None if len(laws) == 1 else np.zeros_like(x)  # a failed block's rows stay 0
        for j, (law, rows) in enumerate(zip(laws, blocks)):
            if j in failed:
                continue
            try:
                ctx = StepContext(step, n_steps, t, dtau, law.w)
                v = apply_controller(law, v_c[rows], v_u[rows], points[rows], ctx, evaluator, update_state)
            except Exception as exc:  # kept as the block's result, re-raised by its caller
                failed[j] = exc
                alive[rows] = False
                continue
            if update_state and law.sliding is not None:
                hist["s_norm"][step, rows] = row_norm(law.sliding.s)
                if record_x:
                    hist["s_path"][step, rows] = law.sliding.s
            if out is None:
                return v
            out[rows] = v
        return out

    def retire(points: np.ndarray, step: int) -> None:
        """Flag the live rows whose ``points`` left the envelope at ``step`` and zero their state."""
        # NaN, +-inf and an overflowing square all fail the comparison
        bad = alive & ~(row_norm(points) <= DIVERGENCE_NORM)
        if bad.any():
            div_step[bad] = step
            alive[bad] = False
            x[bad] = 0.0

    with np.errstate(all="ignore"):
        for i in range(n_steps):
            if len(failed) == len(laws):
                break
            t = float(taus[i])
            v_c, v_u = evaluator(x, t)
            v_hat = guided(i, t, v_c, v_u, x, True)
            if len(failed) == len(laws):
                break
            hist["e_norm"][i] = row_norm(np.subtract(v_c, v_u, out=x_new))
            if record_x:
                hist["x_path"][i] = x
            if heun:
                np.add(x, np.multiply(dtau, v_hat, out=x_pred), out=x_pred)
                retire(x_pred, i)
                if not alive.all():  # a dead row's own velocity may be NaN: evaluate it at the origin
                    x_pred[~alive] = 0.0
                v_c2, v_u2 = evaluator(x_pred, t + dtau)
                v_hat2 = guided(i, t + dtau, v_c2, v_u2, x_pred, False)
                if len(failed) == len(laws):
                    break
                v_use = np.multiply(0.5, np.add(v_hat, v_hat2, out=v_hat2), out=v_hat2)  # v_hat2 is free to overwrite
            else:
                v_use = v_hat
            hist["vhat_norm"][i] = row_norm(v_use)
            np.add(x, np.multiply(dtau, v_use, out=x_new), out=x_new)
            if alive.all():
                x, x_new = x_new, x
            else:
                x[alive] = x_new[alive]
            retire(x, i)

    # Each block owns its result columns: one transposing copy of its kept rows per history, (rows, steps) and
    # C-contiguous, the layout a mean over rows keeps its bits on. Each history leaves the dict when its copies start
    # and is freed when the next is taken, so the pass peaks at its histories plus the copies of one. Last in goes
    # first: the surface histories, copied only for the blocks with a surface, are taken while every history is alive.
    owners = [b for b in range(len(laws) * parts) if b // parts not in failed]
    kept = {b: np.flatnonzero(alive[b * n:(b + 1) * n]) for b in owners}
    columns = {b: {"s_norm": None, "x_path": None, "s_path": None} for b in owners}
    while hist:
        name, history = hist.popitem()
        for b in owners:
            if laws[b // parts].sliding is not None or name not in ("s_norm", "s_path"):
                columns[b][name] = np.ascontiguousarray(np.swapaxes(history[:, b * n:(b + 1) * n], 0, 1)[kept[b]])
    results: list[RunResult | Exception] = []
    for b in range(len(laws) * parts):
        if b not in columns:
            results.append(failed[b // parts])
            continue
        rows = slice(b * n, (b + 1) * n)
        dead = np.flatnonzero(div_step[rows] >= 0)
        results.append(RunResult(
            **_read_only({
                "run_ids": kept[b],
                "tau": taus,
                "finals": np.ascontiguousarray(x[rows][kept[b]]),  # C order, which a mean over rows keeps its bits on
                **columns[b],
            }),
            divergences=dict(zip(dead.tolist(), div_step[rows][dead].tolist())),
            system=system, n_trajectories=n,
        ))
    return results


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
    (result,) = _integrate_rows(system, [law], integ, cond, x0, record_x)
    if isinstance(result, Exception):
        raise result
    if result.divergences:
        raise DivergenceError(result.divergences[0], 0)
    return result.traces[0]


def run_batch(cfg: "_config.ExperimentConfig") -> RunResult:
    """Run the configured batch; divergent trajectories are flagged, not fatal.

    Trajectory i starts from stream i of the master seed.
    """
    (result,) = run_batches(cfg, [cfg.controller])
    if isinstance(result, Exception):
        raise result
    return result


def run_batches(cfg: _config.ExperimentConfig,
                controllers: list[_config.ControllerSpec]) -> list[RunResult | Exception]:
    """Run the config's batch under each controller block, in one lockstep pass; ``cfg.controller`` is not read.

    Every block starts from the same points and shares each field evaluation,
    so with diagonal covariances entry j equals ``run_batch`` of the config
    with ``controllers[j]`` bit for bit; with a full covariance its bits can
    depend on the width of the whole pass. If building or stepping a block's
    control law raises, its entry is the exception that run would raise, and
    the other blocks finish.
    """
    return _integrate_rows(*_pass(cfg, controllers))


def run_sweep(cfg: _config.ExperimentConfig) -> list[RunResult | Exception]:
    """The config's batch at each value of its sweep, in one lockstep pass; entry j is value j's.

    The laws built at the values become one whose swept gain is a per-row
    column, so entry j equals entry j of :func:`run_batches` over the
    per-value blocks, a pass of the same width when every law builds. A
    value whose law fails to build gets its exception and no rows; if the
    stacked law raises, every value gets that exception.
    """
    specs = [_config.with_controller_value(cfg, cfg.sweep.parameter, v).controller for v in cfg.sweep.values]
    system, laws, *rest = _pass(cfg, specs)
    built = [law for law in laws if not isinstance(law, Exception)]
    if built:
        field = CONTROLLERS[cfg.controller.type].keys[cfg.sweep.parameter].field
        column = np.repeat([getattr(law, field) for law in built], cfg.sampler.trajectories)[:, None]
        results = iter(_integrate_rows(system, [replace(built[0], **{field: column})], *rest, parts=len(built)))
    return [law if isinstance(law, Exception) else next(results) for law in laws]


def _pass(cfg: _config.ExperimentConfig, controllers: list[_config.ControllerSpec]) -> tuple:
    """:func:`_integrate_rows`'s arguments for the config's batch under each block; an unbuilt law is its error."""
    system = _config.build_system(cfg.system)
    integ = IntegratorSpec(cfg.sampler.scheme, cfg.sampler.steps, cfg.sampler.tau_clamp)
    x0 = stream_normals(cfg.sampler.seed, cfg.sampler.trajectories, system.dim)
    laws: list[ControlLaw | Exception] = []
    for spec in controllers:
        try:
            laws.append(_config.build_control_law(spec))
        except Exception as exc:  # this block's result, as its own run would raise it
            laws.append(exc)
    return system, laws, integ, cfg.system.target, x0, cfg.sampler.record_x


def _read_only(columns: dict[str, np.ndarray | None]) -> dict[str, np.ndarray | None]:
    for column in columns.values():
        if column is not None:
            column.flags.writeable = False
    return columns


_TRACE_COLUMNS = ("step", "tau", "e_norm", "s_norm", "lyapunov", "vhat_norm")


def _format(values: np.ndarray) -> tuple[str, ...]:
    """Every value as its Python repr, the text both exporters write for a number."""
    return tuple(map(repr, values.tolist()))


def _grid(tau: tuple[str, ...], n: int) -> list:
    """The step and tau cells of each of ``n`` rows, row after row."""
    return [chain.from_iterable(repeat(cells, n)) for cells in (tuple(map(str, range(len(tau)))), tau)]


def traces_to_csv(result: RunResult) -> str:
    """CSV export, one row per step of each trajectory; surface columns are blank for non-smc runs."""
    n, steps = len(result.run_ids), len(result.tau)
    (tau, _), *columns = result._cells
    ids = chain.from_iterable(repeat(str(run_id), steps) for run_id in result.run_ids.tolist())
    cells = [repeat("") if column is None else column[0] for column in columns]
    lines = ["run_id," + ",".join(_TRACE_COLUMNS)]
    lines += map(",".join, zip(ids, *_grid(tau, n), *cells))
    return "\n".join(lines) + "\n"


# How json writes the values a batch holds: ints and finite floats as their repr.
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# One step's object in json.dumps(indent=2) layout, split around its values.
_JSON_STEP = ("{\n" + ",\n".join(f'        "{c}": \0' for c in _TRACE_COLUMNS) + "\n      }").split("\0")


def _json_cells(column: tuple[tuple[str, ...], bool] | None):
    if column is None:
        return repeat("null")
    cells, finite = column
    return cells if finite else tuple(_JSON_SPELLING.get(c, c) for c in cells)


def _fill(pieces: list[str], columns: list) -> list[str]:
    """``pieces[0] + columns[0][i] + pieces[1] + ... + pieces[-1]`` for every row i."""
    parts = [repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:]):
        parts += [column, repeat(piece)]
    return list(map("".join, zip(*parts)))


def _json_array(items: list[str], pad: str) -> str:
    """Encoded items as a JSON array in json.dumps(indent=2) layout, closing at indent ``pad``."""
    if not items:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def traces_to_json(result: RunResult) -> str:
    """JSON export mirroring the CSV columns, byte for byte what json.dumps(indent=2) writes.

    Built from string templates, because json.dumps with an indent runs its
    pure-Python encoder. It reads the cells the CSV export formatted.
    """
    n, steps, dim = len(result.run_ids), len(result.tau), result.finals.shape[1]
    tau, *columns = map(_json_cells, result._cells)
    items = _fill(_JSON_STEP, _grid(tau, n) + columns)
    x_final = [_JSON_SPELLING.get(c, c) for c in _format(result.finals.ravel())]
    trajectories = [
        f'{{\n    "run_id": {run_id},\n'
        f'    "steps": {_json_array(items[i * steps:(i + 1) * steps], "    ")},\n'
        f'    "x_final": {_json_array(x_final[i * dim:(i + 1) * dim], "    ")}\n  }}'
        for i, run_id in enumerate(result.run_ids.tolist())
    ]
    return _json_array(trajectories, "") + "\n"
