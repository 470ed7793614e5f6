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

Vector arguments may carry leading batch axes; everything broadcasts row-wise.
A law never writes into its arguments and returns a fresh array, which the
caller may overwrite. It builds that array in place, each operation on the
operands of its docstring's formula in their order, so the bits are the formula's.
:data:`CONTROLLERS` is the one description of each law: its config keys and
its step function. Config parsing, law building, dispatch and the CLI's
``compare`` all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .numerics import row_sum

VelocityEvaluator = Callable[[np.ndarray, float], tuple[np.ndarray, np.ndarray]]
"""Callable returning (v_cond, v_uncond) at a point and time."""


@dataclass(frozen=True)
class StepContext:
    """Discrete step bookkeeping handed to a control law."""

    index: int
    total_steps: int
    tau: float
    dtau: float
    w: float

    def __post_init__(self):
        if not 0 <= self.index < self.total_steps:
            raise ValueError(f"step index {self.index} outside [0, {self.total_steps})")
        if not self.dtau > 0.0:  # each bound is written so that NaN fails it
            raise ValueError("step size must be positive")
        if not self.w >= 0.0:
            raise ValueError("guidance scale must be nonnegative")


@dataclass
class SlidingState:
    """State of the sliding-mode law, one row per trajectory it steps.

    ``e_prev`` is absent only before the first step. It always stores the raw
    measured gap, never the corrected one, so the surface reflects the true
    system dynamics.
    """

    lam: float
    k: float
    boundary_layer: float = 0.0
    e_prev: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("surface slope lambda must be positive")
        if not self.k >= 0.0:
            raise ValueError("switching gain k must be nonnegative")
        if not self.boundary_layer >= 0.0:
            raise ValueError("boundary layer width must be nonnegative")


@dataclass
class ControlLaw:
    """A guidance variant plus its parameters and (for smc) mutable state.

    One instance steps one batch of rows at a time (a lone trajectory, or
    one block of a lockstep pass); call :meth:`reset` before reuse.
    Stateless variants can be shared read-only.
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
    sliding: SlidingState | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in CONTROLLERS:
            raise ValueError(f"unknown controller variant {self.variant!r}")
        self.reset()

    def reset(self) -> None:
        """Clear per-trajectory state."""
        if self.variant == "smc":
            self.sliding = SlidingState(self.lam, self.k, self.boundary_layer)
        else:
            self.sliding = None


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
    if not w_max >= 1.0:
        raise ValueError(f"w_max = {w_max} must be at least 1")
    frac = ctx.index / (ctx.total_steps - 1) if ctx.total_steps > 1 else 1.0
    if shape == "linear":
        ramp = frac
    elif shape == "cosine":
        ramp = 0.5 * (1.0 - np.cos(np.pi * frac))
    else:
        raise ValueError(f"unknown schedule shape {shape!r}")
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
    if not eta <= 1.0:
        raise ValueError(f"eta = {eta} must be <= 1")
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
    evaluating at a step endpoint), the midpoint is capped halfway to 1.
    """
    if v_c is None:
        v_c, _ = evaluator(x, ctx.tau)
    x_mid = np.multiply(0.5 * ctx.dtau, v_c)
    np.add(x, x_mid, out=x_mid)
    tau_mid = min(ctx.tau + 0.5 * ctx.dtau, 0.5 * (ctx.tau + 1.0))
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
    ctx: StepContext,
    state: SlidingState,
) -> tuple[np.ndarray, SlidingState, dict[str, np.ndarray]]:
    """One sliding-mode guidance update.

    Measures the gap e = v_c - v_u, forms the sliding surface
    s = (e - e_prev) + lam * e_prev (on the first step e_prev defaults to e),
    applies the switching correction delta_e = -k * sign(s) (or its saturated
    version when a boundary layer is enabled), and combines
    v_hat = v_u + w * (e + delta_e). Returns the guided velocity, the next
    state (storing the uncorrected e), and {"s": s, "delta_e": delta_e}.
    """
    v_c, v_u = _operands(v_c, v_u)
    e = v_c - v_u  # e and s are fresh every step: the state keeps them
    e_prev = e if state.e_prev is None else state.e_prev
    s = e - e_prev
    delta_e = np.multiply(state.lam, e_prev)  # then the switch, then the correction
    np.add(s, delta_e, out=s)
    if state.boundary_layer > 0.0:
        np.clip(np.divide(s, state.boundary_layer, out=delta_e), -1.0, 1.0, out=delta_e)
    else:
        np.sign(s, out=delta_e)
    np.multiply(-state.k, delta_e, out=delta_e)
    v_hat = e + delta_e  # e_corrected
    np.add(v_u, np.multiply(ctx.w, v_hat, out=v_hat), out=v_hat)
    new_state = replace(state, e_prev=e, s=s)
    return v_hat, new_state, {"s": s, "delta_e": delta_e}


def apply_controller(
    law: ControlLaw,
    v_c: np.ndarray,
    v_u: np.ndarray,
    x: np.ndarray,
    ctx: StepContext,
    evaluator: VelocityEvaluator | None = None,
    update_state: bool = True,
) -> np.ndarray:
    """Dispatch to the law's variant; only the smc variant mutates state.

    ``update_state=False`` evaluates without recording (used for the second
    stage of multi-stage integrators).
    """
    controller = CONTROLLERS.get(law.variant)
    if controller is None:
        raise ValueError(f"unknown controller variant {law.variant!r}")
    return controller.step(law, v_c, v_u, x, ctx, evaluator, update_state)


def _cfg_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    return cfg_combine(v_c, v_u, law.w)


def _weight_schedule_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    return cfg_combine(v_c, v_u, weight_schedule(ctx, law.shape, law.w))


def _apg_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    return apg_combine(v_c, v_u, law.w, law.eta)


def _cfg_zero_star_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    return cfg_zero_star_combine(v_c, v_u, law.w)


def _rectified_cfgpp_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    if evaluator is None:
        raise ValueError("rectified_cfgpp needs a velocity evaluator")
    lam_max = (law.w - 1.0) if law.lam_max is None else law.lam_max
    return rectified_cfgpp_combine(evaluator, x, ctx, lam_max, law.gamma, v_c=v_c)


def _smc_step(law, v_c, v_u, x, ctx, evaluator, update_state):
    v_hat, new_state, _ = smc_step(v_c, v_u, ctx, law.sliding)
    if update_state:
        law.sliding = new_state
    return v_hat


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

    ``step(law, v_c, v_u, x, ctx, evaluator, update_state)`` returns the
    guided velocity; see :func:`apply_controller`.
    """

    keys: dict[str, ConfigKey]
    step: Callable[..., np.ndarray]


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
