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

from .checks import ConfigError, _as_int, _as_number, _expect, check_seed
from .numerics import Rng, spectral_norm

_BOUND_SLACK = 1e-9  # float tolerance when asserting realized disturbance bounds
_DRIFT_SLACK = 1e-12  # the drift bound's relative slack above delta = 1000; 1e-9 is under an ulp of delta from 8.4e6 on
_DRIFT_FREQ = 0.5  # cycles per unit time of the sinusoidal drift

DRIFT_KINDS = ("constant", "sinusoidal", "noise")
GAIN_KINDS = ("zero", "rotation", "seeded")

# Each numeric field's (type, synth default, test of a finite value, message), in `cfgctrl synth --help` order
RULES = {
    "delta": (float, 0.5, lambda v: v >= 0.0, "must be nonnegative"),
    "rho": (float, 0.0, lambda v: v >= 0.0, "must be nonnegative"),
    "w": (float, 5.0, lambda v: v > 0.0, "must be positive"),
    "k": (float, 0.5, lambda v: v >= 0.0, "must be nonnegative"),
    "dim": (int, 1, lambda v: v >= 1, "must be at least 1"),
    "dt": (float, 0.01, lambda v: v > 0.0, "must be positive"),
    "steps": (int, 2000, lambda v: v >= 1, "must be at least 1"),
    "s0": (float, 2.0, lambda v: v != 0.0, "must be nonzero"),  # the synth flag: the first entry of the start state
}


def check(name: str, value, path: str) -> None:
    """Refuse a value of the wrong type, not finite or breaking field ``name``'s rule, naming ``path`` and the value."""
    kind, _, holds, message = RULES[name]
    try:
        _expect(holds(_as_number(_as_int(value, path) if kind is int else value, path)), path, message)
    except ConfigError as exc:
        raise ConfigError(f"{exc}, got {value!r}") from None


@dataclass(frozen=True)
class PerturbedDynamics:
    """Parameters of one synthetic run.

    drift kinds: "constant" (fixed vector of norm delta), "sinusoidal"
    (norm oscillating within delta), "noise" (fresh bounded draw per step).
    gain deviation kinds: "zero", "rotation" (fixed rotation scaled to rho),
    "seeded" (random matrix scaled to spectral norm rho). The deviation is
    drawn and bound-checked once per run. A field that breaks its rule
    (``RULES``; ``s0`` holds ``dim`` finite numbers, not all zero; ``seed``
    lies in [0, 2**64)) raises the ConfigError naming it.
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
        for name in ("dim", "w", "delta", "rho", "k", "dt"):
            check(name, getattr(self, name), name)
        check_seed(self.seed, "seed")
        _expect(self.drift in DRIFT_KINDS, "drift", f"unknown drift kind {self.drift!r}")
        _expect(self.gain_deviation in GAIN_KINDS, "gain_deviation", f"unknown gain deviation kind {self.gain_deviation!r}")
        entries = self.s0.tolist() if isinstance(self.s0, np.ndarray) else self.s0
        vector = isinstance(entries, (list, tuple))
        try:  # each entry a finite number as RULES takes one: a string, a boolean or a nested list is none
            s0 = np.array([_as_number(v, "s0") for v in entries]) if vector else None
        except ConfigError:
            s0 = None
        _expect(s0 is not None and s0.shape == (self.dim,) and s0.any(), "s0",
                f"must be a finite vector of shape ({self.dim},), not all zero")
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

    Each step works in place: the history is allocated once, the signs go
    into one work buffer, and the new state is written straight into the
    history's next slot. The state enters a step only through sign(s). So
    while the drift vector stays the same, the increment of each joint sign
    pattern of all rows is kept under the pattern's bytes (a NaN sign is a
    pattern like any other) and reused. A joint pattern met for the first
    time is put together from per-row increments, each kept under that row's
    own sign pattern and computed on the row's (1, D, 1) slice: the same
    gemv on the same column as in the stacked call, hence the same bits. A
    row thus computes one increment per sign pattern it visits, however many
    joint patterns the rows form as they chatter in the band. A sinusoidal
    or noise drift changes every step, so it takes one increment for all
    rows per step and keeps none. Overflow is not tested here.
    """
    check("steps", steps, "steps")
    k_col = np.asarray(ks, dtype=float)[:, None, None]
    rng = Rng(dyn.seed)
    history = np.empty((steps + 1, k_col.shape[0], dyn.dim, 1))
    history[0] = dyn.s0[:, None]
    s = history[0]
    sign = np.empty_like(s)
    increments = {}
    row_increments = [{} for _ in range(k_col.shape[0])]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised or reported, not warned about
        gain = _draw_gain(dyn, rng)
        drift = _make_drift(dyn, rng)
        varying_drift = dyn.drift != "constant"
        # a constant drift's one realization, delta * u, bounds each sinusoidal one, delta * sin(phase) * u
        phi = dyn.delta * _unit_direction(dyn.dim) if varying_drift else drift(0)
        if dyn.drift != "noise":
            _check_drift(dyn, phi)
        for step in range(steps):
            np.sign(s, out=sign)
            if varying_drift:
                phi = drift(step)
                if dyn.drift == "noise":
                    _check_drift(dyn, phi)
                inc = _increment(dyn.dt, phi, gain, k_col, sign)
            else:
                key = sign.tobytes()
                inc = increments.get(key)
                if inc is None:
                    rows = []
                    for j, cache in enumerate(row_increments):
                        row_key = sign[j].tobytes()
                        row = cache.get(row_key)
                        if row is None:
                            row = cache[row_key] = _increment(dyn.dt, phi, gain, k_col[j : j + 1], sign[j : j + 1])
                        rows.append(row)
                    inc = increments[key] = np.concatenate(rows)
            s = np.add(s, inc, out=history[step + 1])
    return history[..., 0]


def _norms_and_overflow(history: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int | None]]:
    """|s| and energy 0.5 * |s|^2 per step and row of an ``_integrate`` history, and each row's first overflowed step.

    A step overflows when its state, |s| or the energy is not finite; a
    non-finite state has a non-finite norm, and a norm whose square
    overflows marks a state that is still finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(history, axis=2)
        energy = 0.5 * norms**2
        bad = ~np.isfinite(energy)
    return norms, energy, [int(np.argmax(col)) if col.any() else None for col in bad.T]


def _band(dyn: PerturbedDynamics) -> float:
    """Radius within which a discrete switching run counts as converged."""
    return 1.5 * dyn.dt * dyn.w * dyn.k


def _reach_step(s_norms: np.ndarray, band: float) -> int | None:
    inside = np.nonzero(s_norms <= band)[0]
    return int(inside[0]) if inside.size else None


def simulate_sliding(dyn: PerturbedDynamics, steps: int) -> ConvergenceReport:
    """Euler-integrate the perturbed switching dynamics and audit convergence.

    Realized disturbance bounds are asserted on every realization: a noise
    drift at every step, a constant or sinusoidal drift once on delta * u
    (the constant one's single realization, and the sinusoidal one's peak),
    the gain deviation on the one matrix drawn per run. A violated gain
    condition is reported, not raised; a surface state that overflows
    raises ``SurfaceOverflow``, and a realization or drift phase that does
    raises ``Overflow``.
    """
    history = _integrate(dyn, [dyn.k], steps)
    norms, energy, (overflow,) = _norms_and_overflow(history)
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
        lyapunov=energy[:, 0],
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
    runs = [replace(template, k=k) for k in k_values]  # refuses a gain that breaks RULES["k"], naming it
    if not runs:
        return []
    history = _integrate(template, [dyn.k for dyn in runs], steps)
    norms, _, overflows = _norms_and_overflow(history)
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
