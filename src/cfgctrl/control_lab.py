"""Synthetic testbed for the sliding-variable dynamics.

This module simulates the reduced system

    ds/dt = drift(t) + gain @ (-k * sign(s)),      gain = w*I + dG,

with the drift norm-bounded by delta and the gain deviation dG, drawn and
bound-checked once per run, spectral-norm bounded by rho. It exists to
check, independently of any flow system, that the switching law converges
in finite time whenever the gain condition k * (w - rho*sqrt(D)) > delta
holds, and to map the corridor of usable switching gains empirically.

Discrete-time semantics: under Euler stepping the state cannot settle below
one switching quantum dt*w*k, so "converged" means |s| <= 1.5 * dt * w * k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .numerics import Rng, spectral_norm

_BOUND_SLACK = 1e-9  # float tolerance when asserting realized disturbance bounds
_DRIFT_SLACK = 1e-12  # the drift bound's relative slack above delta = 1000; 1e-9 is under an ulp of delta from 8.4e6 on
_DRIFT_FREQ = 0.5  # cycles per unit time of the sinusoidal drift

DRIFT_KINDS = ("constant", "sinusoidal", "noise")
GAIN_KINDS = ("zero", "rotation", "seeded")


@dataclass(frozen=True)
class PerturbedDynamics:
    """Parameters of one synthetic run.

    drift kinds: "constant" (fixed vector of norm delta), "sinusoidal"
    (norm oscillating within delta), "noise" (fresh bounded draw per step).
    gain deviation kinds: "zero", "rotation" (fixed rotation scaled to rho),
    "seeded" (random matrix scaled to spectral norm rho). The deviation is
    drawn and bound-checked once per run.
    """

    dim: int
    w: float
    delta: float
    rho: float
    k: float
    dt: float
    s0: np.ndarray
    drift: str = "constant"
    gain_deviation: str = "zero"
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        if not (self.w > 0.0 and self.dt > 0.0):  # each bound is written so that NaN fails it
            raise ValueError("w and dt must be positive")
        if not (self.k >= 0.0 and self.delta >= 0.0 and self.rho >= 0.0):
            raise ValueError("k, delta, rho must be nonnegative")
        if self.drift not in DRIFT_KINDS:
            raise ValueError(f"unknown drift kind {self.drift!r}")
        if self.gain_deviation not in GAIN_KINDS:
            raise ValueError(f"unknown gain deviation kind {self.gain_deviation!r}")
        s0 = np.asarray(self.s0, dtype=float)
        if s0.shape != (self.dim,):
            raise ValueError(f"s0 shape {s0.shape} != ({self.dim},)")
        object.__setattr__(self, "s0", s0)


@dataclass(eq=False)
class ConvergenceReport:
    """Outcome of one synthetic run against the finite-time bound.

    ``eta`` is the decrease margin k*(w - rho*sqrt(D)) - delta from the
    switching analysis; the reaching bound uses it.
    """

    reached: bool
    reach_step: int | None
    bound_steps: int | None      # None without the gain condition, or if bound_time / dt is past the floats
    bound_time: float | None
    gain_condition_met: bool
    eta: float
    phi: float
    band: float
    s_norms: np.ndarray          # length steps + 1, includes the initial state
    lyapunov: np.ndarray         # 0.5 * s_norms^2
    s_history: np.ndarray        # (steps + 1, D)


def _unit_direction(dim: int) -> np.ndarray:
    u = np.ones(dim)
    return u / np.linalg.norm(u)


def _make_drift(dyn: PerturbedDynamics, rng: Rng):
    direction = _unit_direction(dyn.dim)
    if dyn.drift == "constant":
        vec = dyn.delta * direction

        def drift(step: int) -> np.ndarray:
            return vec

    elif dyn.drift == "sinusoidal":

        def drift(step: int) -> np.ndarray:
            phase = 2.0 * math.pi * _DRIFT_FREQ * step * dyn.dt
            if phase == math.inf:
                raise Overflow(f"sinusoidal drift phase overflowed at step {step}")
            return dyn.delta * math.sin(phase) * direction

    else:  # bounded noise

        def drift(step: int) -> np.ndarray:
            z = rng.standard_normal(dyn.dim)
            nz = np.linalg.norm(z)
            if nz == 0.0:
                return np.zeros(dyn.dim)
            return dyn.delta * float(rng.uniform()) * z / nz

    return drift


def _draw_gain_deviation(dyn: PerturbedDynamics, rng: Rng) -> np.ndarray:
    if dyn.gain_deviation == "zero" or dyn.rho == 0.0:
        return np.zeros((dyn.dim, dyn.dim))
    if dyn.gain_deviation == "rotation":
        if dyn.dim == 1:
            return np.array([[-dyn.rho]])
        m = np.eye(dyn.dim)
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = c, -s, s, c
        return dyn.rho * m
    g = rng.standard_normal((dyn.dim, dyn.dim))
    top = spectral_norm(g)
    if top == 0.0:
        return np.zeros((dyn.dim, dyn.dim))
    return dyn.rho * g / top


def _draw_gain(dyn: PerturbedDynamics, rng: Rng) -> np.ndarray:
    """Realized gain w*I + dG for a freshly drawn deviation dG, whose bound is asserted here."""
    gain_dev = _draw_gain_deviation(dyn, rng)
    if not np.isfinite(gain_dev).all():
        raise Overflow("realized gain deviation overflowed")
    scale = max(dyn.rho, 1.0)  # a deviation of norm near 1, whose power iteration cannot overflow
    if spectral_norm(gain_dev / scale) > (dyn.rho + max(_BOUND_SLACK, 1e-8 * dyn.rho)) / scale:
        raise RuntimeError("realized gain deviation exceeded its bound")
    return dyn.w * np.eye(dyn.dim) + gain_dev


class Overflow(RuntimeError):
    """A run left the floats: its surface state, a drift or gain realization, or the sinusoidal drift's phase."""


class SurfaceOverflow(Overflow):
    """The surface state of a run left the floats; ``step`` is the first whose state, |s| or energy is not finite."""

    def __init__(self, step: int):
        super().__init__(f"surface state overflowed at step {step}")
        self.step = step


def _check_drift(dyn: PerturbedDynamics, phi: np.ndarray) -> None:
    # sqrt(phi . phi) is np.linalg.norm's own formula for a vector, without its dispatch cost,
    # which a varying drift would pay every step
    norm = math.sqrt(phi.dot(phi))
    if norm == math.inf:  # the square overflowed, or the drift did
        if not np.isfinite(phi).all():
            raise Overflow("realized drift overflowed")
        top = float(np.abs(phi).max())
        norm = top * math.sqrt((phi / top).dot(phi / top))
    if not norm <= dyn.delta + max(_BOUND_SLACK, _DRIFT_SLACK * dyn.delta):  # written so that NaN fails it
        raise RuntimeError("realized drift exceeded its bound")


def _increment(dt: float, phi: np.ndarray, gain: np.ndarray, k_col: np.ndarray, sign: np.ndarray) -> np.ndarray:
    """Euler increment dt * (phi - gain @ (k * sign(s))) of every gain row's (D, 1) state column."""
    return dt * (phi[:, None] - gain @ (k_col * sign))


def _integrate(dyn: PerturbedDynamics, ks, steps: int) -> np.ndarray:
    """Euler-integrate one surface state per switching gain in ``ks``, in lockstep.

    Returns the (steps + 1, len(ks), D) history, the initial state included.
    The drift and gain realizations depend only on ``dyn.seed``, so every row
    sees the same ones, each drawn and bound-checked once. Row j equals a run
    of ``replace(dyn, k=ks[j])`` bit for bit: each row's state is a (D, 1)
    column, so ``gain @`` the stacked columns calls gemv once per row, as
    ``gain @ u`` does on one vector.

    The state enters a step only through sign(s). So while the drift vector
    stays the same, the increment is computed once per joint sign pattern
    of all rows, keyed by the pattern's bytes (a NaN sign is a pattern like
    any other), and reused: the same operands through the same operations,
    hence the same bits. A sinusoidal or noise drift empties the cache
    every step. Overflow is not tested here.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    k_col = np.asarray(ks, dtype=float)[:, None, None]
    rng = Rng(dyn.seed)
    s = np.tile(dyn.s0[:, None], (k_col.shape[0], 1, 1))
    history = np.zeros((steps + 1,) + s.shape)
    history[0] = s
    increments = {}
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised or reported, not warned about
        gain = _draw_gain(dyn, rng)
        drift = _make_drift(dyn, rng)
        varying_drift = dyn.drift != "constant"
        if not varying_drift:
            phi = drift(0)
            _check_drift(dyn, phi)
        for step in range(steps):
            if varying_drift:
                phi = drift(step)
                _check_drift(dyn, phi)
                increments.clear()
            sign = np.sign(s)
            key = sign.tobytes()
            inc = increments.get(key)
            if inc is None:
                inc = increments[key] = _increment(dyn.dt, phi, gain, k_col, sign)
            s = s + inc
            history[step + 1] = s
    return history[..., 0]


def _norms_and_overflow(history: np.ndarray) -> tuple[np.ndarray, list[int | None]]:
    """|s| per step and row of an ``_integrate`` history, and per row its first overflowed step, or None.

    A step overflows when its state, |s| or the energy 0.5 * |s|^2 is not
    finite; a non-finite state has a non-finite norm, and a norm whose
    square overflows marks a state that is still finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(history, axis=2)
        bad = ~np.isfinite(0.5 * norms**2)
    return norms, [int(np.argmax(col)) if col.any() else None for col in bad.T]


def _band(dyn: PerturbedDynamics) -> float:
    """Radius within which a discrete switching run counts as converged."""
    return 1.5 * dyn.dt * dyn.w * dyn.k


def _reach_step(s_norms: np.ndarray, band: float) -> int | None:
    inside = np.nonzero(s_norms <= band)[0]
    return int(inside[0]) if inside.size else None


def simulate_sliding(dyn: PerturbedDynamics, steps: int) -> ConvergenceReport:
    """Euler-integrate the perturbed switching dynamics and audit convergence.

    Realized disturbance bounds are asserted on every realization: the drift
    at every step (a constant drift once, as its single realization), the
    gain deviation on the one matrix drawn per run. A violated gain
    condition is reported, not raised; a surface state that overflows
    raises ``SurfaceOverflow``, and a realization or drift phase that does
    raises ``Overflow``.
    """
    history = _integrate(dyn, [dyn.k], steps)
    norms, (overflow,) = _norms_and_overflow(history)
    if overflow is not None:
        raise SurfaceOverflow(overflow)
    history = history[:, 0]

    phi = dyn.w - dyn.rho * math.sqrt(dyn.dim)
    eta = dyn.k * phi - dyn.delta
    gain_met = phi > 0.0 and eta > 0.0
    band = _band(dyn)

    s_norms = norms[:, 0]
    reach_step = _reach_step(s_norms, band)
    reached = reach_step is not None

    bound_time = None
    bound_steps = None
    if gain_met:
        bound_time = float(np.linalg.norm(dyn.s0)) / eta
        bound_steps = math.ceil(bound_time / dyn.dt) if bound_time / dyn.dt < math.inf else None

    return ConvergenceReport(
        reached=reached,
        reach_step=reach_step,
        bound_steps=bound_steps,
        bound_time=bound_time,
        gain_condition_met=gain_met,
        eta=eta,
        phi=phi,
        band=band,
        s_norms=s_norms,
        lyapunov=0.5 * s_norms**2,
        s_history=history,
    )


def stability_corridor(delta_est: float, w: float, s_norm: float, dt: float) -> tuple[float, float]:
    """Usable switching-gain interval (delta_est / w, 2 * |s| / (w * dt)).

    Below the lower edge the drift wins; above the upper edge discrete
    switching overshoots and oscillates.
    """
    if not delta_est >= 0.0:
        raise ValueError("drift estimate must be nonnegative")
    if not (w > 0.0 and s_norm > 0.0 and dt > 0.0):
        raise ValueError("w, s_norm, dt must be positive")
    span = w * dt
    return delta_est / w, (2.0 * s_norm / span if span > 0.0 else math.inf)  # w * dt can underflow to 0


@dataclass(frozen=True)
class CorridorRow:
    """Outcome of one gain value in a corridor sweep."""

    k: float
    reached: bool
    reach_step: int | None
    residual_band: float | None   # max |s| after first reaching the band
    osc_amplitude: float | None   # mean per-step |s_{n+1} - s_n| after reaching
    overflow_step: int | None = None  # first overflowed step; the other fields are then blank


def corridor_sweep(template: PerturbedDynamics, k_values: list[float], steps: int) -> list[CorridorRow]:
    """Simulate the template at every switching gain in one lockstep pass and summarize each tail.

    Every gain sees the template's drift and gain realizations. A gain whose
    surface state overflows is reported unreached, with its overflow step; a
    realization that overflows raises ``Overflow``, as in ``simulate_sliding``.
    """
    runs = [replace(template, k=float(k)) for k in k_values]  # refuses a negative gain
    if not runs:
        return []
    history = _integrate(template, [dyn.k for dyn in runs], steps)
    norms, overflows = _norms_and_overflow(history)
    rows = []
    for j, (dyn, overflow) in enumerate(zip(runs, overflows)):
        if overflow is not None:
            rows.append(CorridorRow(dyn.k, False, None, None, None, overflow))
            continue
        path = history[:, j]
        s_norms = norms[:, j]
        reach_step = _reach_step(s_norms, _band(dyn))
        if reach_step is None:
            rows.append(CorridorRow(dyn.k, False, None, None, None))
            continue
        tail = path[reach_step:]
        residual = float(s_norms[reach_step:].max())
        osc = float(np.linalg.norm(np.diff(tail, axis=0), axis=1).mean()) if tail.shape[0] > 1 else 0.0
        rows.append(CorridorRow(dyn.k, True, reach_step, residual, osc))
    return rows
