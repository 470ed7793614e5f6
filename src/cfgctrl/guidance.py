"""Guidance control laws for flow sampling.

Every law here maps the pair of conditional/unconditional velocity
predictions to a guided velocity. All of them are gain-times-shaped-error
controllers acting on the prediction gap e = v_cond - v_uncond:

* ``cfg``             fixed proportional gain w
* ``weight_schedule`` gain ramped over the step schedule
* ``apg``             gain split across components parallel/orthogonal to v_cond
* ``cfg_zero_star``   unconditional direction rescaled by a least-squares factor
* ``rectified_cfgpp`` predictor half-step, gap re-measured at the midpoint
* ``smc``             sliding-mode switching correction of the gap

Vector arguments may carry leading batch axes; everything broadcasts row-wise,
and a gain (``w``, ``lam``, ``k``) may be an (n, 1) column holding one value
per row, which gives each row the bits of its scalar.
A :class:`ControlLaw` is a frozen value and the only home of its gains. A step
takes the law's state before it and returns the state after it (smc's
:class:`SlidingState`, which holds only the surface's history, else None);
the :class:`StepContext` that it also takes holds only the pass's step data.
A law never writes into its arguments and returns a fresh array, which the
caller may overwrite. It builds that array in place, each operation on the
operands of its docstring's formula in their order, so the bits are the formula's.
:data:`CONTROLLERS` is the one description of each law: its config keys and
its step function. Config parsing, law building, dispatch, the CLI's
``compare`` and each law function's check of its gains all read it, through
:func:`check_keys` for the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import row_sum

VelocityEvaluator = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]
"""Callable returning (v_cond, v_uncond) at a point and time."""


def check_keys(variant: str, values: dict) -> None:
    """Refuse a value that breaks its key of ``variant`` in :data:`CONTROLLERS`: ``ValueError("<key>: <message>")``.

    ``values`` maps config keys to values. A key with choices takes one of
    them; any other key's value meets the key's bound: the plain comparison
    for a scalar, every entry for a gain column.
    """
    keys = CONTROLLERS[variant].keys
    for key, value in values.items():
        spec = keys[key]
        ok = value in spec.choices if spec.choices else spec.bound(value)
        if not (ok.all() if isinstance(ok, np.ndarray) else ok):
            raise ValueError(f"{key}: unknown {key} {value!r}" if spec.choices else f"{key}: {spec.message}")


@dataclass(frozen=True)
class StepContext:
    """The pass's data for one step, which every law it steps shares; a law's gains live in the law."""

    index: int
    total_steps: int
    tau: float
    dtau: float

    def __post_init__(self):
        if not 0 <= self.index < self.total_steps:
            raise ValueError(f"step index {self.index} outside [0, {self.total_steps})")
        if not self.dtau > 0.0:  # written so that NaN fails it
            raise ValueError("step size must be positive")


@dataclass(frozen=True)
class SlidingState:
    """History of the sliding-mode law's surface, one row per trajectory it steps; its gains live in the law.

    ``e_prev`` is absent only before the first step. It always stores the raw
    measured gap, never the corrected one, so the surface reflects the true
    system dynamics.
    """

    e_prev: np.ndarray | None = None
    s: np.ndarray | None = None


@dataclass(frozen=True)
class ControlLaw:
    """A guidance variant and its parameters: a frozen value, which any number of runs may share.

    It holds no state: whoever steps it carries the state, from :meth:`initial_state` on.
    A field that breaks its variant's config key in :data:`CONTROLLERS` raises
    the ValueError of :func:`check_keys` naming the key, so a built law never raises in a step.
    """

    variant: str
    w: float = 1.0
    # weight_schedule, ramping from 1 to w
    shape: str = "cosine"
    # apg
    eta: float = 0.5
    # rectified_cfgpp; lam_max of None resolves to w - 1
    lam_max: float | None = None
    gamma: float = 1.0
    # smc
    lam: float = 6.0
    k: float = 0.1
    boundary_layer: float = 0.0

    def __post_init__(self):
        if self.variant not in CONTROLLERS:
            raise ValueError(f"unknown controller variant {self.variant!r}")
        keys = CONTROLLERS[self.variant].keys
        check_keys(self.variant, {key: getattr(self, spec.field) for key, spec in keys.items()})

    def initial_state(self) -> SlidingState | None:
        """The state before the first step: a fresh SlidingState for smc, None for every other law."""
        return SlidingState() if self.variant == "smc" else None


def _operands(v_c, v_u) -> tuple[np.ndarray, np.ndarray]:
    """Both velocities as float arrays; ValueError if their shapes differ."""
    v_c = np.asarray(v_c, dtype=float)
    v_u = np.asarray(v_u, dtype=float)
    if v_c.shape != v_u.shape:
        raise ValueError(f"velocity shapes differ: {v_c.shape} vs {v_u.shape}")
    return v_c, v_u


def cfg_combine(v_c: np.ndarray, v_u: np.ndarray, w: float) -> np.ndarray:
    """Proportional guidance: v_u + w * (v_c - v_u)."""
    v_c, v_u = _operands(v_c, v_u)
    gap = v_c - v_u
    return np.add(v_u, np.multiply(w, gap, out=gap), out=gap)


def weight_schedule(ctx: StepContext, shape: str, w_max: float) -> float:
    """Gain ramp from 1 at the first step to w_max at the last.

    ``shape`` is "linear" or "cosine"; both are monotonically non-decreasing
    in the step index.
    """
    check_keys("weight_schedule", {"w_max": w_max, "shape": shape})
    frac = ctx.index / (ctx.total_steps - 1) if ctx.total_steps > 1 else 1.0
    ramp = frac if shape == "linear" else 0.5 * (1.0 - np.cos(np.pi * frac))
    return 1.0 + (w_max - 1.0) * float(ramp)


def _nan_where_zero(norm_sq: np.ndarray, message: str) -> np.ndarray:
    """A law's squared-norm divisor with its zero rows set to NaN, which spreads to their whole output row.

    A single vector (a divisor of shape (1,)) has no other rows to save, so it raises ``message`` instead.
    """
    zero = norm_sq == 0.0
    if not zero.any():
        return norm_sq
    if norm_sq.ndim == 1:
        raise ValueError(message)
    return np.where(zero, np.nan, norm_sq)


def apg_combine(v_c: np.ndarray, v_u: np.ndarray, w: float, eta: float) -> np.ndarray:
    """Projected guidance: down-weight the gap component parallel to v_c.

    The gap dv = v_c - v_u splits into dv_par (projection onto v_c) and
    dv_perp; the guided velocity is v_u + w * (dv_perp + eta * dv_par).
    A zero v_c leaves the projection undefined: a single vector raises, and
    a row of a batch comes out NaN so that the sampler flags only that row.
    """
    v_c, v_u = _operands(v_c, v_u)
    check_keys("apg", {"eta": eta})
    work = v_c * v_c
    norm_sq = _nan_where_zero(row_sum(work)[..., None], "conditional velocity is zero; projection undefined")
    out = v_c - v_u  # dv, then dv_perp, then the guided velocity
    dv_par = np.multiply(row_sum(np.multiply(out, v_c, out=work))[..., None] / norm_sq, v_c, out=work)
    np.subtract(out, dv_par, out=out)
    np.add(out, np.multiply(eta, dv_par, out=dv_par), out=out)
    return np.add(v_u, np.multiply(w, out, out=out), out=out)


def cfg_zero_star_combine(v_c: np.ndarray, v_u: np.ndarray, w: float) -> np.ndarray:
    """Guidance with the unconditional direction rescaled by its least-squares fit.

    s_star = <v_c, v_u> / |v_u|^2 minimizes |v_c - s * v_u|; the guided
    velocity is s_star * v_u + w * (v_c - s_star * v_u). A zero v_u is
    handled as a zero v_c is in :func:`apg_combine`.
    """
    v_c, v_u = _operands(v_c, v_u)
    work = v_u * v_u
    norm_sq = _nan_where_zero(row_sum(work)[..., None], "unconditional velocity is zero; rescaling undefined")
    s_star = row_sum(np.multiply(v_c, v_u, out=work))[..., None] / norm_sq
    base = np.multiply(s_star, v_u, out=work)
    out = v_c - base
    return np.add(base, np.multiply(w, out, out=out), out=out)


def rectified_cfgpp_combine(
    evaluator: VelocityEvaluator,
    x: np.ndarray,
    ctx: StepContext,
    lam_max: float,
    gamma: float,
    v_c: np.ndarray | None = None,
) -> np.ndarray:
    """Predictor-corrector guidance using the gap at a conditional half-step.

    Takes half an Euler step along v_c, re-measures the conditional minus
    unconditional gap there, and adds it with gain
    alpha = lam_max * (1 - remaining_noise_time)^gamma, where the remaining
    noise time is 1 - tau. The lookahead never leaves the valid time domain:
    when less than half a step of room remains (a multi-stage integrator
    evaluating at a step endpoint), the midpoint is capped halfway to 1, and
    below 1 where halfway rounds to 1. On a batch, a row whose midpoint is not
    finite is evaluated at the origin; in the sampler that row's v_c is not
    finite, so neither is its output, and the row is flagged. A single vector
    raises instead.
    """
    if v_c is None:
        v_c, _ = evaluator(x, ctx.tau)
    x_mid = np.multiply(0.5 * ctx.dtau, v_c)
    np.add(x, x_mid, out=x_mid)
    if x_mid.ndim > 1 and not np.isfinite(x_mid).all():
        x_mid[~np.isfinite(x_mid).all(axis=-1)] = 0.0
    tau_mid = min(ctx.tau + 0.5 * ctx.dtau, 0.5 * (ctx.tau + 1.0), math.nextafter(1.0, 0.0))
    v_c_mid, v_u_mid = evaluator(x_mid, tau_mid)
    try:
        alpha = lam_max * ctx.tau**gamma
    except OverflowError:  # a float power raises where numpy's gives inf
        alpha = lam_max * np.inf
    gap = v_c_mid - v_u_mid
    return np.add(v_c, np.multiply(alpha, gap, out=gap), out=gap)


def smc_step(
    v_c: np.ndarray,
    v_u: np.ndarray,
    state: SlidingState,
    w: float | np.ndarray,
    lam: float | np.ndarray,
    k: float | np.ndarray,
    boundary_layer: float = 0.0,
) -> tuple[np.ndarray, SlidingState, np.ndarray]:
    """One sliding-mode guidance update.

    Measures the gap e = v_c - v_u, forms the sliding surface
    s = (e - e_prev) + lam * e_prev (on the first step e_prev defaults to e),
    applies the switching correction delta_e = -k * sign(s) (or its saturated
    version when a boundary layer is enabled), and combines
    v_hat = v_u + w * (e + delta_e). Returns the guided velocity, the next
    state (the uncorrected e, and s) and delta_e. The gains meet smc's
    config keys, as the law's do, else ValueError naming the key.
    """
    v_c, v_u = _operands(v_c, v_u)
    check_keys("smc", {"w": w, "lambda": lam, "k": k, "boundary_layer": boundary_layer})
    e = v_c - v_u  # e and s are fresh every step: the state keeps them
    e_prev = e if state.e_prev is None else state.e_prev
    s = e - e_prev
    delta_e = np.multiply(lam, e_prev)  # then the switch, then the correction
    np.add(s, delta_e, out=s)
    if boundary_layer > 0.0:
        np.clip(np.divide(s, boundary_layer, out=delta_e), -1.0, 1.0, out=delta_e)
    else:
        np.sign(s, out=delta_e)
    np.multiply(-k, delta_e, out=delta_e)
    v_hat = e + delta_e  # e_corrected
    np.add(v_u, np.multiply(w, v_hat, out=v_hat), out=v_hat)
    return v_hat, SlidingState(e, s), delta_e


def apply_controller(
    law: ControlLaw,
    v_c: np.ndarray,
    v_u: np.ndarray,
    x: np.ndarray,
    ctx: StepContext,
    evaluator: VelocityEvaluator | None = None,
    state: SlidingState | None = None,
) -> tuple[np.ndarray, SlidingState | None]:
    """The law's guided velocity at one step and its state after it, ``(v, state)``; neither input changes.

    ``state`` is the state before the step: :meth:`ControlLaw.initial_state` at the first, None for a stateless law.
    """
    return CONTROLLERS[law.variant].step(law, v_c, v_u, x, ctx, evaluator, state)


def _cfg_step(law, v_c, v_u, x, ctx, evaluator, state):
    return cfg_combine(v_c, v_u, law.w), None


def _weight_schedule_step(law, v_c, v_u, x, ctx, evaluator, state):
    return cfg_combine(v_c, v_u, weight_schedule(ctx, law.shape, law.w)), None


def _apg_step(law, v_c, v_u, x, ctx, evaluator, state):
    return apg_combine(v_c, v_u, law.w, law.eta), None


def _cfg_zero_star_step(law, v_c, v_u, x, ctx, evaluator, state):
    return cfg_zero_star_combine(v_c, v_u, law.w), None


def _rectified_cfgpp_step(law, v_c, v_u, x, ctx, evaluator, state):
    if evaluator is None:
        raise ValueError("rectified_cfgpp needs a velocity evaluator")
    lam_max = (law.w - 1.0) if law.lam_max is None else law.lam_max
    return rectified_cfgpp_combine(evaluator, x, ctx, lam_max, law.gamma, v_c=v_c), None


def _smc_step(law, v_c, v_u, x, ctx, evaluator, state):
    if state is None:
        raise ValueError("smc steps from a state: pass law.initial_state() at the first step")
    v_hat, state, _ = smc_step(v_c, v_u, state, law.w, law.lam, law.k, law.boundary_layer)
    return v_hat, state


@dataclass(frozen=True)
class ConfigKey:
    """One key of a controller's config block.

    The key sets the :class:`ControlLaw` field ``field``; a key left out keeps
    that field's default. A key with ``choices`` takes one of those strings;
    any other key takes a number that must satisfy ``bound``, else the config
    is refused with ``message``.
    """

    field: str
    bound: Callable[[float], bool] = lambda value: True
    message: str = ""
    required: bool = False
    choices: tuple[str, ...] = ()


@dataclass(frozen=True)
class Controller:
    """Config keys and step function of one control law.

    ``step(law, v_c, v_u, x, ctx, evaluator, state)`` returns the guided
    velocity and the law's next state; see :func:`apply_controller`.
    """

    keys: dict[str, ConfigKey]
    step: Callable[..., tuple[np.ndarray, SlidingState | None]]


_W = ConfigKey("w", lambda w: w >= 0.0, "guidance scale must be nonnegative")

CONTROLLERS: dict[str, Controller] = {
    "cfg": Controller({"w": _W}, _cfg_step),
    "weight_schedule": Controller(
        {
            # the ramp's end gain is the law's gain w
            "w_max": ConfigKey("w", lambda w: w >= 1.0, "must be at least 1", required=True),
            "shape": ConfigKey("shape", choices=("linear", "cosine")),
        },
        _weight_schedule_step,
    ),
    "apg": Controller(
        {"w": _W, "eta": ConfigKey("eta", lambda eta: eta <= 1.0, "must be at most 1")},
        _apg_step,
    ),
    "cfg_zero_star": Controller({"w": _W}, _cfg_zero_star_step),
    "rectified_cfgpp": Controller(
        {"w": _W, "lambda_max": ConfigKey("lam_max"), "gamma": ConfigKey("gamma")},
        _rectified_cfgpp_step,
    ),
    "smc": Controller(
        {
            "w": _W,
            "lambda": ConfigKey("lam", lambda lam: lam > 0.0, "must be positive"),
            "k": ConfigKey("k", lambda k: k >= 0.0, "must be nonnegative"),
            "boundary_layer": ConfigKey("boundary_layer", lambda b: b >= 0.0, "must be nonnegative"),
        },
        _smc_step,
    ),
}
"""Every control law by config type name; the names are ControlLaw variants."""
