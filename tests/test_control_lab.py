import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cfgctrl import control_lab
from cfgctrl.control_lab import (
    DRIFT_KINDS,
    GAIN_KINDS,
    CorridorRow,
    PerturbedDynamics,
    SurfaceOverflow,
    corridor_sweep,
    simulate_sliding,
    stability_corridor,
)
from cfgctrl.config import ConfigError
from cfgctrl.metrics import audit_surface_series
from cfgctrl.numerics import Rng


def dynamics(**overrides):
    base = dict(
        dim=1,
        w=5.0,
        delta=0.5,
        rho=0.0,
        k=1.0,
        dt=0.02,
        s0=np.array([2.0]),
        drift="constant",
        gain_deviation="zero",
        seed=3,
    )
    base.update(overrides)
    return PerturbedDynamics(**base)


class TestSimulateSliding:
    def test_pure_switching_staircase(self):
        # no drift, unit gains: |s| drops by exactly w*k*dt per step
        dyn = dynamics(w=1.0, delta=0.0, k=1.0, dt=0.01, s0=np.array([5.0]))
        report = simulate_sliding(dyn, 600)
        drops = -np.diff(report.s_norms[: report.reach_step])
        assert np.allclose(drops, 0.01, atol=1e-12)
        assert 495 <= report.reach_step <= 502
        assert report.gain_condition_met

    def test_reaches_within_theoretical_bound(self):
        dyn = dynamics(delta=0.5, rho=0.0, w=5.0, k=0.5, dt=0.002)
        report = simulate_sliding(dyn, 2000)
        assert report.gain_condition_met
        assert report.reached
        assert report.reach_step * dyn.dt <= report.bound_time * 1.05

    def test_gain_condition_unmet_flagged_not_raised(self):
        dyn = dynamics(k=0.05)  # k below delta / w = 0.1
        report = simulate_sliding(dyn, 2000)
        assert not report.gain_condition_met
        assert not report.reached
        assert report.s_norms.min() > 0.5  # drift keeps the state away from zero

    def test_eta_forms_agree_when_rho_zero(self):
        dyn = dynamics()
        report = simulate_sliding(dyn, 10)
        assert report.eta == pytest.approx(dyn.k * (dyn.w - dyn.rho * np.sqrt(dyn.dim)) - dyn.delta)
        assert report.eta == pytest.approx(dyn.k * (dyn.w - dyn.rho) - dyn.delta)

    def test_eta_forms_differ_with_anisotropy(self):
        dyn = dynamics(dim=2, rho=0.5, s0=np.array([2.0, 0.0]), gain_deviation="rotation")
        report = simulate_sliding(dyn, 10)
        assert report.eta == pytest.approx(dyn.k * (dyn.w - dyn.rho * np.sqrt(dyn.dim)) - dyn.delta)
        assert report.eta < dyn.k * (dyn.w - dyn.rho) - dyn.delta
        assert report.phi == pytest.approx(5.0 - 0.5 * np.sqrt(2.0))

    def test_lyapunov_decreases_outside_band(self):
        for seed, drift, gain_dev in [(1, "constant", "zero"), (2, "sinusoidal", "rotation"), (3, "noise", "seeded")]:
            dyn = dynamics(dim=2, rho=0.2, delta=0.4, k=0.6, dt=0.002, s0=np.array([1.5, -1.0]),
                           drift=drift, gain_deviation=gain_dev, seed=seed)
            report = simulate_sliding(dyn, 1500)
            assert report.gain_condition_met
            violations, first = audit_surface_series(report.s_norms, report.band)
            assert violations == 0, f"{drift}/{gain_dev} violated at {first}"

    def test_monotone_in_k_on_constant_drift(self):
        reach = []
        for k in (0.3, 0.6, 1.0, 1.5):
            report = simulate_sliding(dynamics(k=k, dt=0.005), 4000)
            assert report.reached
            reach.append(report.reach_step)
        assert all(b <= a for a, b in zip(reach, reach[1:]))

    def test_realized_bounds_hold(self):
        # indirect: the simulation asserts them internally; run the spiciest combo
        dyn = dynamics(dim=3, rho=0.3, delta=0.7, k=0.8, dt=0.005,
                       s0=np.array([1.0, -2.0, 0.5]), drift="noise",
                       gain_deviation="seeded", seed=99)
        report = simulate_sliding(dyn, 500)
        assert np.isfinite(report.s_norms).all()

    def _count_spectral_norms(self, monkeypatch):
        return _count_calls(monkeypatch, "spectral_norm")

    @pytest.mark.parametrize("steps", [1, 40, 300])
    def test_seeded_gain_checked_once_per_run(self, monkeypatch, steps):
        calls = self._count_spectral_norms(monkeypatch)
        simulate_sliding(dynamics(dim=3, rho=0.3, s0=np.ones(3), gain_deviation="seeded"), steps)
        assert len(calls) == 2  # the draw's scaling, then the bound check

    def test_gain_over_bound_raises(self, monkeypatch):
        draws = []

        def drawn(dyn, rng):
            draws.append(1)
            return 2.0 * dyn.rho * np.eye(dyn.dim)

        monkeypatch.setattr(control_lab, "_draw_gain_deviation", drawn)
        dyn = dynamics(dim=2, rho=0.3, s0=np.ones(2), gain_deviation="seeded")
        with pytest.raises(RuntimeError, match="gain deviation exceeded"):
            simulate_sliding(dyn, 10)
        assert len(draws) == 1

    @pytest.mark.parametrize("drift, checks", [("constant", 1), ("sinusoidal", 1), ("noise", 40)])
    def test_drift_checked_once_per_realization(self, monkeypatch, drift, checks):
        calls = _count_calls(monkeypatch, "_check_drift")
        simulate_sliding(dynamics(drift=drift), 40)
        assert len(calls) == checks  # a constant drift has one realization, which bounds every sinusoidal one

    @pytest.mark.parametrize("drift", DRIFT_KINDS)
    def test_drift_over_bound_raises(self, monkeypatch, drift):
        # every realization over the bound, and the peak delta * u on which a sinusoidal drift is checked
        monkeypatch.setattr(control_lab, "_make_drift", lambda dyn, rng: lambda step: np.full(dyn.dim, dyn.delta))
        monkeypatch.setattr(control_lab, "_unit_direction", np.ones)
        with pytest.raises(RuntimeError, match="drift exceeded"):
            simulate_sliding(dynamics(dim=2, s0=np.ones(2), drift=drift), 10)

    def test_drift_check_decides_as_linalg_norm(self):
        # vectors whose norm lies within a few ulps of the bound, where a different formula could flip the check
        rng = np.random.default_rng(0)
        dyn = dynamics(dim=4, s0=np.ones(4))
        bound = dyn.delta + control_lab._BOUND_SLACK
        outcomes = set()
        for _ in range(2000):
            z = rng.standard_normal(4)
            phi = z / np.linalg.norm(z) * bound * (1.0 + rng.integers(-4, 5) * 2.0**-52)
            try:
                control_lab._check_drift(dyn, phi)
                raised = False
            except RuntimeError:
                raised = True
            assert raised == (np.linalg.norm(phi) > bound)
            outcomes.add(raised)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("dim, delta", [(3, 1e8), (6, 3e7), (7, 3e7), (1, 1e200), (3, 1e200), (2, 1.7e308)])
    def test_drift_at_its_bound_passes_at_any_scale(self, dim, delta):
        # delta * (1, ..., 1) / sqrt(D) can have norm delta * (1 + 2**-52), an ulp of delta above it; from
        # 1e154 on, phi . phi overflows
        with np.errstate(over="ignore"):  # as the integrator calls it
            control_lab._check_drift(dynamics(dim=dim, delta=delta, s0=np.ones(dim)), delta * np.ones(dim) / np.sqrt(dim))

    @pytest.mark.parametrize("phi", [[np.nan, 0.0], [np.inf, np.nan]])
    def test_nan_drift_fails_the_check(self, phi):
        with pytest.raises(RuntimeError, match="drift exceeded"):
            control_lab._check_drift(dynamics(dim=2, s0=np.ones(2)), np.array(phi))

    @pytest.mark.parametrize("phi", [[np.inf, 0.0], [-np.inf, np.inf]])
    def test_infinite_drift_is_an_overflow(self, phi):
        with pytest.raises(control_lab.Overflow, match="^realized drift overflowed$"):
            control_lab._check_drift(dynamics(dim=2, delta=1e308, s0=np.ones(2)), np.array(phi))

    @pytest.mark.parametrize("kind, rho", [("seeded", 1e200), ("seeded", 1e308), ("rotation", 1e308), ("rotation", 1.7e308)])
    def test_gain_bound_checked_without_overflow(self, kind, rho):
        dyn = dynamics(dim=3, rho=rho, s0=np.ones(3), gain_deviation=kind, seed=0)
        gain = control_lab._draw_gain(dyn, Rng(dyn.seed))
        assert np.array_equal(gain, dyn.w * np.eye(3) + control_lab._draw_gain_deviation(dyn, Rng(dyn.seed)))

    def test_gain_past_the_floats_is_an_overflow(self):
        # rho * g overflows for an entry of g above 1.06
        dyn = dynamics(dim=3, rho=1.7e308, s0=np.ones(3), gain_deviation="seeded", seed=0)
        with pytest.raises(control_lab.Overflow, match="^realized gain deviation overflowed$"):
            simulate_sliding(dyn, 10)

    def test_sinusoidal_phase_past_the_floats_is_an_overflow(self):
        with pytest.raises(control_lab.Overflow, match="^sinusoidal drift phase overflowed at step 1$"):
            simulate_sliding(dynamics(drift="sinusoidal", dt=1e308), 5)

    def test_reach_bound_past_the_floats_is_no_step_count(self):
        report = simulate_sliding(dynamics(dt=1e-320), 50)  # bound_time / dt overflows
        assert report.gain_condition_met and report.bound_time == 2.0 / 4.5
        assert report.bound_steps is None

    def test_overflow_raises_naming_the_step(self):
        with pytest.raises(SurfaceOverflow, match="overflowed at step 1$") as err:
            simulate_sliding(dynamics(w=1e300, k=1e10), 50)
        assert err.value.step == 1

    @pytest.mark.parametrize("field", ["w", "dt", "k", "delta", "rho"])
    def test_nan_parameter_refused(self, field):
        with pytest.raises(ConfigError, match=f"^{field}: must be a finite number, got nan$"):
            dynamics(gain_deviation="seeded", **{field: float("nan")})

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            dynamics(s0=np.array([1.0, 2.0]))  # dim=1 but 2-entry start


# Testbeds built in code that once ran, or were refused naming no field. A numpy int or float32 is refused, as a
# config field refuses it.
TESTBED_HOLES = {
    "w_inf": (lambda: dynamics(w=math.inf), "w: must be a finite number, got inf"),
    "k_inf": (lambda: dynamics(k=math.inf), "k: must be a finite number, got inf"),
    "delta_inf": (lambda: dynamics(delta=math.inf), "delta: must be a finite number, got inf"),
    "nan_s0": (lambda: dynamics(s0=np.array([math.nan])), "s0: must be a finite vector of shape (1,), not all zero"),
    "zero_s0": (lambda: dynamics(s0=[0.0]), "s0: must be a finite vector of shape (1,), not all zero"),
    "seed_-1": (lambda: dynamics(seed=-1), "seed: must lie in [0, 2**64)"),
    "seed_2**70": (lambda: dynamics(seed=2**70), "seed: must lie in [0, 2**64)"),
    "dim_true": (lambda: dynamics(dim=True), "dim: must be an integer, got True"),
    "dim_2.5": (lambda: dynamics(dim=2.5), "dim: must be an integer, got 2.5"),
    "no_steps": (lambda: simulate_sliding(dynamics(), 0), "steps: must be at least 1, got 0"),
    "numpy_dim": (lambda: dynamics(dim=np.int64(1)), "dim: must be an integer, got np.int64(1)"),
    "float32_w": (lambda: dynamics(w=np.float32(5.0)), "w: must be a number, got np.float32(5.0)"),
    "unknown_drift": (lambda: dynamics(drift="zig"), "drift: unknown drift kind 'zig'"),
    # values numpy or float() cannot convert: each gain of a corridor sweep goes to RULES as given
    "str_s0": (lambda: dynamics(s0="abc"), "s0: must be a finite vector of shape (1,), not all zero"),
    "ragged_s0": (lambda: dynamics(dim=2, s0=[[1.0], [1.0, 2.0]]),
                  "s0: must be a finite vector of shape (2,), not all zero"),
    "dict_s0": (lambda: dynamics(s0={"a": 1}), "s0: must be a finite vector of shape (1,), not all zero"),
    # entries that numpy would convert: each is refused as RULES refuses w="5" or w=True
    "str_entries_s0": (lambda: dynamics(dim=2, s0=["1", "2"]), "s0: must be a finite vector of shape (2,), not all zero"),
    "str_entry_s0": (lambda: dynamics(dim=2, s0=["1e3", 0]), "s0: must be a finite vector of shape (2,), not all zero"),
    "bool_entries_s0": (lambda: dynamics(dim=2, s0=[True, False]),
                        "s0: must be a finite vector of shape (2,), not all zero"),
    "bool_array_s0": (lambda: dynamics(dim=2, s0=np.array([True, False])),
                      "s0: must be a finite vector of shape (2,), not all zero"),
    "huge_int_s0": (lambda: dynamics(s0=[10**400]), "s0: must be a finite vector of shape (1,), not all zero"),
    "set_s0": (lambda: dynamics(dim=2, s0={1.0, 2.0}), "s0: must be a finite vector of shape (2,), not all zero"),
    "str_corridor_k": (lambda: corridor_sweep(dynamics(), ["abc"], 1), "k: must be a number, got 'abc'"),
    "none_corridor_k": (lambda: corridor_sweep(dynamics(), [None], 1), "k: must be a number, got None"),
    "bool_corridor_k": (lambda: corridor_sweep(dynamics(), [True], 1), "k: must be a number, got True"),
}


@pytest.mark.parametrize("make, message", TESTBED_HOLES.values(), ids=TESTBED_HOLES)
def test_testbed_refuses_by_field(make, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        make()


def _count_calls(monkeypatch, name):
    """Count calls to the control_lab function bound to ``name``, which still runs."""
    calls = []
    original = getattr(control_lab, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(control_lab, name, counted)
    return calls


class TestStabilityCorridor:
    def test_direct_substitution(self):
        # 2 * s_norm / (w * dt) = 2 * 2 / (5 * 0.02) = 40
        assert stability_corridor(0.5, 5.0, 2.0, 0.02) == (pytest.approx(0.1), pytest.approx(40.0))

    def test_zero_drift_gives_zero_lower_edge(self):
        low, _ = stability_corridor(0.0, 5.0, 2.0, 0.02)
        assert low == 0.0

    def test_underflowed_step_gain_gives_an_open_upper_edge(self):
        assert stability_corridor(0.5, 1e-320, 2.0, 1e-320) == (math.inf, math.inf)  # w * dt is 0.0

    def test_infeasibility_detectable(self):
        low, high = stability_corridor(10.0, 1.0, 0.001, 1.0)
        assert low >= high

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            stability_corridor(-0.1, 5.0, 2.0, 0.02)
        with pytest.raises(ValueError):
            stability_corridor(0.5, 0.0, 2.0, 0.02)
        with pytest.raises(ValueError):
            stability_corridor(0.5, 5.0, 2.0, 0.0)


    @pytest.mark.parametrize("position, message", [
        (0, "drift estimate must be nonnegative"),
        (1, "w, s_norm, dt must be positive"),
        (2, "w, s_norm, dt must be positive"),
        (3, "w, s_norm, dt must be positive"),
    ])
    def test_nan_input_refused(self, position, message):
        args = [0.5, 5.0, 2.0, 0.02]
        args[position] = float("nan")
        with pytest.raises(ValueError, match=message):
            stability_corridor(*args)


class TestCorridorSweep:
    def test_zero_gain_never_converges_with_drift(self):
        rows = corridor_sweep(dynamics(), [0.0], 1000)
        assert rows[0].reached is False
        assert rows[0].residual_band is None

    def test_inside_corridor_converges_within_analytic_band(self):
        template = dynamics()
        for k in (0.3, 1.0, 3.0):
            row = corridor_sweep(template, [k], 600)[0]
            assert row.reached
            # staircase overshoot cannot exceed dt * (w*k + delta)
            assert row.residual_band <= template.dt * (template.w * k + template.delta) + 1e-12

    def test_oscillation_tracks_switching_quantum_far_above_corridor(self):
        template = dynamics()
        k_max = stability_corridor(template.delta, template.w, 2.0, template.dt)[1]
        k = 10.0 * k_max
        row = corridor_sweep(template, [k], 400)[0]
        quantum = template.dt * template.w * k
        assert row.reached
        assert abs(row.osc_amplitude - quantum) <= 0.2 * quantum

    def test_below_corridor_marked_unreached(self):
        rows = corridor_sweep(dynamics(), [0.02, 0.05], 1000)
        assert all(not row.reached for row in rows)


class TestLockstepSweep:
    GAINS = [0.0, 0.02, 0.3, 1.0, 400.0]

    @staticmethod
    def separate_row(template, k, steps):
        """The row one simulate_sliding run at gain k gives."""
        report = simulate_sliding(replace(template, k=k), steps)
        if not report.reached:
            return CorridorRow(k, False, None, None, None)
        tail = report.s_history[report.reach_step :]
        osc = float(np.linalg.norm(np.diff(tail, axis=0), axis=1).mean()) if tail.shape[0] > 1 else 0.0
        return CorridorRow(k, True, report.reach_step, float(report.s_norms[report.reach_step :].max()), osc)

    @pytest.mark.parametrize("gain_dev", GAIN_KINDS)
    @pytest.mark.parametrize("drift", DRIFT_KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_rows_equal_separate_runs(self, seed, dim, drift, gain_dev):
        template = dynamics(dim=dim, rho=0.5, s0=np.linspace(2.0, -1.0, dim), drift=drift,
                            gain_deviation=gain_dev, seed=seed)
        rows = corridor_sweep(template, self.GAINS, 150)
        assert rows == [self.separate_row(template, k, 150) for k in self.GAINS]
        assert any(row.reached for row in rows) and not all(row.reached for row in rows)

    def test_seeded_gain_checked_once_per_sweep(self, monkeypatch):
        calls = _count_calls(monkeypatch, "spectral_norm")
        corridor_sweep(dynamics(dim=3, rho=0.3, s0=np.ones(3), gain_deviation="seeded"), [0.1, 0.5, 1.0, 3.0], 200)
        assert len(calls) == 2  # one drawn matrix for all four gains

    def test_negative_gain_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            corridor_sweep(dynamics(), [0.5, -0.1], 100)

    def test_no_gains_no_rows(self):
        assert corridor_sweep(dynamics(), [], 100) == []

    def test_overflowed_gain_blank_others_finish(self):
        template = dynamics()
        rows = corridor_sweep(template, [0.3, 1e308, 1.0], 200)
        assert rows[1] == CorridorRow(1e308, False, None, None, None, overflow_step=1)
        assert rows[0] == self.separate_row(template, 0.3, 200)
        assert rows[2] == self.separate_row(template, 1.0, 200)

    def test_energy_overflow_counts_as_overflow(self):
        # at k=1e306 the state -5e304 is finite, but |s|^2 is not
        rows = corridor_sweep(dynamics(dt=0.01), [0.3, 1e306], 50)
        assert rows[1] == CorridorRow(1e306, False, None, None, None, overflow_step=1)
        with pytest.raises(SurfaceOverflow, match="overflowed at step 1$"):
            simulate_sliding(dynamics(dt=0.01, k=1e306), 50)


def _stepwise_history(dyn, ks, steps):
    """``_integrate`` as one Euler formula per step, with no cached increments: the reference for the cache."""
    k_col = np.asarray(ks, dtype=float)[:, None, None]
    rng = Rng(dyn.seed)
    gain = control_lab._draw_gain(dyn, rng)
    drift = control_lab._make_drift(dyn, rng)
    s = np.tile(dyn.s0[:, None], (k_col.shape[0], 1, 1))
    history = [s]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            s = s + dyn.dt * (drift(step)[:, None] - gain @ (k_col * np.sign(s)))
            history.append(s)
    return np.stack(history)[..., 0]


class TestIncrementCache:
    GAIN_LISTS = [[0.5], [0.0, 0.02, 0.3, 1.0, 5.0, 400.0], [1e306, 0.3]]
    STEPS = 150

    @staticmethod
    def template(dim, drift, gain_dev, seed):
        return dynamics(dim=dim, rho=0.5, s0=np.linspace(2.0, -1.0, dim), drift=drift,
                        gain_deviation=gain_dev, seed=seed)

    @pytest.mark.parametrize("gain_dev", GAIN_KINDS)
    @pytest.mark.parametrize("drift", DRIFT_KINDS)
    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    @pytest.mark.parametrize("seed", [5, 17])
    def test_history_equals_stepwise_formula(self, seed, dim, drift, gain_dev):
        dyn = self.template(dim, drift, gain_dev, seed)
        for ks in self.GAIN_LISTS:
            got = control_lab._integrate(dyn, ks, self.STEPS)
            want = _stepwise_history(dyn, ks, self.STEPS)
            assert got.tobytes() == want.tobytes(), ks  # bytes: NaN, inf and -0.0 included

    @pytest.mark.parametrize("ks", GAIN_LISTS)
    @pytest.mark.parametrize("gain_dev", GAIN_KINDS)
    @pytest.mark.parametrize("dim", [1, 4])
    def test_fixed_drift_and_gain_evaluate_once_per_sign_pattern(self, monkeypatch, dim, gain_dev, ks):
        calls = _count_calls(monkeypatch, "_increment")
        history = control_lab._integrate(self.template(dim, "constant", gain_dev, 5), ks, self.STEPS)
        row_patterns = [{np.sign(state).tobytes() for state in history[:-1, j]} for j in range(len(ks))]
        assert len(calls) == sum(map(len, row_patterns)) < self.STEPS

    @pytest.mark.parametrize("drift, gain_dev", [("sinusoidal", "seeded"), ("noise", "zero")])
    def test_new_drift_evaluates_every_step(self, monkeypatch, drift, gain_dev):
        calls = _count_calls(monkeypatch, "_increment")
        control_lab._integrate(self.template(4, drift, gain_dev, 5), self.GAIN_LISTS[1], self.STEPS)
        assert len(calls) == self.STEPS  # one increment for all rows, never one per row

    @pytest.mark.parametrize("seed", range(7))
    def test_benchmark_testbed_equals_stepwise_formula(self, seed):
        # the testbed of bench/workloads.py SynthLab: d = 4, rho = 0.5, a seeded gain, its single run and its corridor
        dyn = PerturbedDynamics(dim=4, w=5.0, delta=0.5, rho=0.5, k=0.5, dt=0.01, s0=np.array([2.0, 0.0, 0.0, 0.0]),
                                gain_deviation="seeded", seed=seed)
        for ks in ([0.5], [0.02, 0.3, 1.0, 400.0]):
            got = control_lab._integrate(dyn, ks, 2000)
            assert got.tobytes() == _stepwise_history(dyn, ks, 2000).tobytes(), ks
