import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import cfgctrl.guidance
import cfgctrl.sampler
from cfgctrl.cli import main as cli_main
from cfgctrl.config import (
    ComponentSpec,
    ConfigError,
    ControllerSpec,
    ExperimentConfig,
    SamplerSpec,
    SweepSpec,
    SystemSpec,
    build_system,
    with_controller_value,
)
from cfgctrl.flow_systems import FlowSystem, GaussComponent, data_responsibilities
from cfgctrl.guidance import ControlLaw
from cfgctrl.metrics import fit_gaussian, quality_report, w2_gaussian
from cfgctrl.numerics import Rng, stream_normals
from cfgctrl.sampler import (
    DivergenceError,
    RunResult,
    _integrate_rows,
    run_batch,
    run_batches,
    run_sweep,
    sample_trajectory,
    traces_to_csv,
    traces_to_json,
)

from conftest import REFERENCE_CONFIG, assert_rows_are_their_reference_loops, reference_row


def two_comp_config(controller, steps=64, trajectories=50, seed=501, scheme="euler", target="right"):
    system = SystemSpec(
        dimension=2,
        components=(
            ComponentSpec(0.5, (3.0, 0.0), "diag", (1.0, 1.0)),
            ComponentSpec(0.5, (-3.0, 0.0), "diag", (1.0, 1.0)),
        ),
        conditions={"right": (0,), "left": (1,), "all": (0, 1)},
        target=target,
    )
    return ExperimentConfig(
        system=system,
        controller=controller,
        sampler=SamplerSpec(scheme, steps, trajectories, seed, False, 1e-4),
    )


def single_gauss_system():
    return FlowSystem([GaussComponent(1.0, np.array([1.5, -0.5]), np.eye(2))], {"only": [0]})


class TestSamplerSpec:
    def test_uniform_grid(self):
        integ = SamplerSpec("euler", 10, tau_clamp=1e-3)
        grid = integ.tau_grid()
        assert len(grid) == 10
        assert grid[0] == pytest.approx(1e-3)
        assert integ.dtau == pytest.approx((1.0 - 2e-3) / 10)
        assert np.allclose(np.diff(grid), integ.dtau)
        assert grid[-1] + integ.dtau == pytest.approx(1.0 - 1e-3)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"scheme": "rk4"}, "sampler.scheme: unknown scheme 'rk4'"),
            ({"steps": 1}, "sampler.steps: must be at least 2"),
            ({"tau_clamp": 0.7}, "sampler.tau_clamp: must lie in (0, 0.5)"),
            ({"trajectories": 0}, "sampler.trajectories: must be at least 1"),
            ({"steps": 64.0}, "sampler.steps: must be an integer"),
            ({"record_x": 1}, "sampler.record_x: must be a boolean"),
            ({"tau_clamp": float("nan")}, "sampler.tau_clamp: must be a finite number"),
        ],
    )
    def test_validation(self, fields, message):
        """A spec built in code meets the config file's rules and messages."""
        with pytest.raises(ConfigError, match=re.escape(message)):
            SamplerSpec(**fields)


class TestSampleTrajectory:
    def test_deterministic_bit_identical(self):
        system = single_gauss_system()
        integ = SamplerSpec("euler", 32)
        t1 = sample_trajectory(system, ControlLaw("cfg", w=1.0), integ, "only", Rng(5, 0))
        t2 = sample_trajectory(system, ControlLaw("cfg", w=1.0), integ, "only", Rng(5, 0))
        assert np.array_equal(t1.x_final, t2.x_final)
        assert np.array_equal(t1.e_norm, t2.e_norm)
        assert np.array_equal(t1.vhat_norm, t2.vhat_norm)

    def test_trace_shape_and_finiteness(self):
        system = single_gauss_system()
        integ = SamplerSpec("heun", 16, record_x=True)
        trace = sample_trajectory(system, ControlLaw("smc", w=3.0), integ, "only", Rng(6, 0))
        assert len(trace.tau) == 16
        assert trace.x_path.shape == (16, 2)
        assert trace.s_norm.shape == (16,)
        for arr in (trace.tau, trace.e_norm, trace.vhat_norm, trace.s_norm, trace.x_final):
            assert np.isfinite(arr).all()

    def test_monotone_tau(self):
        system = single_gauss_system()
        trace = sample_trajectory(system, ControlLaw("cfg"), SamplerSpec("euler", 8), "only", Rng(7, 0))
        assert (np.diff(trace.tau) > 0).all()


class TestRunBatch:
    def test_n_one_reduces_to_sample_trajectory(self):
        cfg = two_comp_config(ControllerSpec("cfg", {"w": 2.0}), trajectories=1, steps=24)
        result = run_batch(cfg)
        system = FlowSystem(
            [GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)), GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2))],
            {"right": [0]},
        )
        direct = sample_trajectory(
            system, ControlLaw("cfg", w=2.0), SamplerSpec("euler", 24), "right", Rng(cfg.sampler.seed, 0)
        )
        assert np.array_equal(result.traces[0].x_final, direct.x_final)
        assert np.array_equal(result.traces[0].e_norm, direct.e_norm)

    def test_smc_k_zero_matches_cfg_bit_for_bit(self):
        cfg_plain = two_comp_config(ControllerSpec("cfg", {"w": 5.0}), trajectories=8, steps=32)
        cfg_smc = two_comp_config(ControllerSpec("smc", {"w": 5.0, "lambda": 6.0, "k": 0.0}), trajectories=8, steps=32)
        r1 = run_batch(cfg_plain)
        r2 = run_batch(cfg_smc)
        for a, b in zip(r1.traces, r2.traces):
            assert np.array_equal(a.x_final, b.x_final)
            assert np.array_equal(a.e_norm, b.e_norm)
            assert np.array_equal(a.vhat_norm, b.vhat_norm)

    def test_zero_gap_condition_matches_unconditional_mixture(self):
        # target = full support makes every controller coincide with the raw flow
        cfg = two_comp_config(
            ControllerSpec("smc", {"w": 7.0, "lambda": 6.0, "k": 0.3}),
            trajectories=400,
            steps=48,
            target="all",
        )
        result = run_batch(cfg)
        assert result.n_divergent == 0
        e = np.stack([t.e_norm for t in result.traces])
        assert np.abs(e).max() <= 1e-12
        finals = result.finals
        system = FlowSystem(
            [GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)), GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2))],
            {},
        )
        resp = data_responsibilities(system, finals)
        right_fraction = resp[:, 0].mean()
        se = 0.5 / np.sqrt(len(finals))
        assert abs(right_fraction - 0.5) <= 4.0 * se

    def test_single_gaussian_w1_euler_w2_distance(self):
        system = SystemSpec(
            dimension=2,
            components=(ComponentSpec(1.0, (1.5, -0.5), "diag", (1.0, 1.0)),),
            conditions={"only": (0,)},
            target="only",
        )
        cfg = ExperimentConfig(
            system=system,
            controller=ControllerSpec("cfg", {"w": 1.0}),
            sampler=SamplerSpec("euler", 200, 2000, 11, False, 1e-4),
        )
        result = run_batch(cfg)
        fit = fit_gaussian(result.finals)
        w2 = w2_gaussian(fit.mean, fit.cov, np.array([1.5, -0.5]), np.eye(2))
        assert w2 <= 0.1

    def test_heun_no_worse_than_double_step_euler(self):
        # endpoint error against the closed-form affine flow map of one Gaussian
        mu = np.array([2.0, -1.0])
        system = FlowSystem([GaussComponent(1.0, mu, np.eye(2))], {"only": [0]})

        def q(t):
            return t * t + (1.0 - t) ** 2

        def integrate(scheme, steps, x0):  # the scheme the lockstep pass steps, as its reference loop states it
            integ = SamplerSpec(scheme, steps, tau_clamp=1e-4)
            x = reference_row(system, ControlLaw("cfg", w=1.0), integ, "only", x0)["finals"]
            return x, float(integ.tau_grid()[0]), float(integ.tau_grid()[-1] + integ.dtau)

        x0 = np.array([0.8, -0.3])
        for steps in (50, 100):
            x_euler, t0, t1 = integrate("euler", 2 * steps, x0)
            x_heun, _, _ = integrate("heun", steps, x0)
            exact = t1 * mu + np.sqrt(q(t1) / q(t0)) * (x0 - t0 * mu)
            assert np.linalg.norm(x_heun - exact) <= 2.0 * np.linalg.norm(x_euler - exact)

    def test_divergent_config_flagged_not_fatal(self):
        cfg = two_comp_config(
            ControllerSpec("smc", {"w": 1e5, "lambda": 6.0, "k": 1e3}), trajectories=6, steps=16
        )
        result = run_batch(cfg)
        assert result.n_divergent == 6
        assert result.traces == []
        assert all(isinstance(step, int) for step in result.divergences.values())

    def test_single_divergent_trajectory_raises_with_step(self):
        system = FlowSystem(
            [GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)), GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2))],
            {"right": [0]},
        )
        law = ControlLaw("smc", w=1e5, lam=6.0, k=1e3)
        with pytest.raises(DivergenceError) as err:
            sample_trajectory(system, law, SamplerSpec("euler", 16), "right", Rng(1, 0))
        assert err.value.step >= 0

    def test_no_nan_in_any_trace(self):
        cfg = two_comp_config(ControllerSpec("cfg", {"w": 10.0}), trajectories=30, steps=48)
        result = run_batch(cfg)
        for trace in result.traces:
            assert np.isfinite(trace.e_norm).all()
            assert np.isfinite(trace.vhat_norm).all()
            assert np.isfinite(trace.x_final).all()

    @pytest.mark.parametrize(
        "controller",
        [
            ControllerSpec("cfg", {"w": 3.0}),
            ControllerSpec("weight_schedule", {"w_max": 5.0, "shape": "linear"}),
            ControllerSpec("apg", {"w": 3.0, "eta": 0.5}),
            ControllerSpec("cfg_zero_star", {"w": 3.0}),
            ControllerSpec("rectified_cfgpp", {"w": 3.0}),
            ControllerSpec("smc", {"w": 3.0, "lambda": 6.0, "k": 0.1}),
        ],
        ids=lambda c: c.type,
    )
    def test_every_controller_runs_under_both_schemes(self, controller):
        for scheme in ("euler", "heun"):
            cfg = two_comp_config(controller, trajectories=3, steps=12, scheme=scheme)
            result = run_batch(cfg)
            assert result.n_divergent == 0
            for trace in result.traces:
                assert np.isfinite(trace.x_final).all()
                # guided samples should land in the right half-plane
                assert trace.x_final[0] > 0

    def test_gap_norm_shrinks_for_guided_runs(self):
        cfg = two_comp_config(ControllerSpec("cfg", {"w": 1.0}), trajectories=100, steps=64, seed=88)
        result = run_batch(cfg)
        e = np.stack([t.e_norm for t in result.traces])
        assert (e[:, -1] < e[:, 0]).mean() >= 0.9


# The compare command's six control laws at w = 5.
COMPARE_LAWS = (
    ControllerSpec("cfg", {"w": 5.0}),
    ControllerSpec("weight_schedule", {"w_max": 5.0}),
    ControllerSpec("apg", {"w": 5.0}),
    ControllerSpec("cfg_zero_star", {"w": 5.0}),
    ControllerSpec("rectified_cfgpp", {"w": 5.0}),
    ControllerSpec("smc", {"w": 5.0, "lambda": 6.0, "k": 0.1}),
)
SMC = ControllerSpec("smc", {"w": 5.0, "lambda": 6.0, "k": 0.1, "boundary_layer": 0.05})


def smc_at(parameter, values):
    return [ControllerSpec("smc", {**SMC.params, parameter: v}) for v in values]


# the controller blocks of each lockstep case: the compare command's laws, and SMC at several values of one parameter
LOCKSTEP_CASES = {
    "compare": COMPARE_LAWS,
    "sweep_w": smc_at("w", (1.0, 2.0, 5.0, 10.0, 15.0)),
    "sweep_lambda": smc_at("lambda", (3.0, 4.0, 6.0)),
    "sweep_k": smc_at("k", (0.0, 0.4, 1.0)),
}


def lockstep_config(scheme, record_x=True, trajectories=7):
    """The two-component config, 12 steps, that the lockstep cases run under."""
    cfg = two_comp_config(SMC, steps=12, trajectories=trajectories, scheme=scheme)
    return replace(cfg, sampler=replace(cfg.sampler, record_x=record_x))


def lockstep(case, scheme, record_x=True, trajectories=7):
    """The case's blocks in one ``run_batches`` pass of :func:`lockstep_config`."""
    return run_batches(lockstep_config(scheme, record_x, trajectories), list(LOCKSTEP_CASES[case]))


def assert_same_batch(got, want, ids=None):
    """Bit-equal results in every column; with ``ids``, on those trajectories only, which both must lose alike."""
    ids = range(got.n_trajectories) if ids is None else ids
    assert got.n_trajectories == want.n_trajectories and got.tau.tobytes() == want.tau.tobytes()
    assert {i: s for i, s in got.divergences.items() if i in ids} == {i: s for i, s in want.divergences.items() if i in ids}
    got_rows, want_rows = np.isin(got.run_ids, ids), np.isin(want.run_ids, ids)
    assert got.run_ids[got_rows].tolist() == want.run_ids[want_rows].tolist()
    for name in ("e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
        x, y = getattr(got, name), getattr(want, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x.shape[1:] == y.shape[1:] and x[got_rows].tobytes() == y[want_rows].tobytes(), name


class TestRunBatches:
    @pytest.mark.parametrize("trajectories", [1, 7])
    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_each_block_equals_its_separate_run(self, case, scheme, record_x, trajectories):
        # a row's separate run is its reference loop; a pass of six blocks is wider than any the property draws
        cfg = lockstep_config(scheme, record_x, trajectories)
        results = run_batches(cfg, list(LOCKSTEP_CASES[case]))
        system, x0 = build_system(cfg.system), stream_normals(cfg.sampler.seed, trajectories, 2)
        for result, spec in zip(results, LOCKSTEP_CASES[case], strict=True):
            assert_rows_are_their_reference_loops(result, system, spec.law, cfg.sampler, cfg.system.target, x0)

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("parameter, values", [("k", (0.1, 1e9, 0.4))], ids=["every_row_diverges"])
    def test_failed_block_leaves_the_others(self, scheme, parameter, values, record_x):
        base = lockstep_config(scheme, record_x)
        cfgs = [with_controller_value(base, parameter, v) for v in values]
        results = run_batches(base, [cfg.controller for cfg in cfgs])
        assert results[1].n_divergent == 7 and not results[1].traces
        system, x0 = build_system(base.system), stream_normals(base.sampler.seed, 7, 2)
        for got, cfg in zip(results, cfgs, strict=True):  # the loop of the divergent block leaves at its step
            assert_rows_are_their_reference_loops(got, system, cfg.controller.law, cfg.sampler, "right", x0)

    def test_no_blocks_give_no_results(self):
        assert run_batches(two_comp_config(SMC, steps=12, trajectories=3), []) == []

    def test_run_batch_raises_its_block_exception(self, monkeypatch):
        def refuse(*args):
            raise ValueError("combine refused")

        monkeypatch.setattr(cfgctrl.guidance, "cfg_combine", refuse)
        with pytest.raises(ValueError, match="^combine refused$"):
            run_batch(two_comp_config(ControllerSpec("cfg", {"w": 5.0}), steps=12, trajectories=3))

    def test_a_stage_checks_only_the_gains_its_law_functions_take(self, monkeypatch):
        # a built law's gains were checked when it was built; per stage only smc_step, apg_combine and
        # weight_schedule check the gains they are handed
        calls = []
        real = cfgctrl.guidance.check_keys
        monkeypatch.setattr(cfgctrl.guidance, "check_keys", lambda *args: calls.append(args[0]) or real(*args))
        cfg = lockstep_config("euler", record_x=False)
        run_batches(cfg, list(COMPARE_LAWS))
        steps = cfg.sampler.steps
        assert sorted(calls) == ["apg"] * steps + ["smc"] * steps + ["weight_schedule"] * steps

    def test_sweep_refuses_a_config_without_a_sweep_block(self):
        with pytest.raises(ConfigError, match=r"^sweep: block missing from config$"):
            run_sweep(two_comp_config(SMC, steps=12, trajectories=3))

    def test_sweep_over_a_key_the_controller_lacks_is_refused(self):
        base = two_comp_config(ControllerSpec("cfg", {"w": 5.0}), steps=12, trajectories=3)
        with pytest.raises(ConfigError, match=r"^sweep\.parameter: 'lambda' is not a parameter of controller 'cfg'$"):
            replace(base, sweep=SweepSpec("lambda", (3.0, 6.0)))


class TestLawIsAValue:
    """The pass holds each law's state, so one law instance can run any number of passes."""

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("boundary_layer", [0.0, 0.05])
    def test_second_pass_repeats_the_first(self, scheme, boundary_layer):
        cfg = two_comp_config(SMC, steps=12, trajectories=7, scheme=scheme)
        sampler = replace(cfg.sampler, record_x=True)
        system = build_system(cfg.system)
        x0 = np.random.default_rng(3).standard_normal((7, 2))
        law = ControlLaw("smc", w=5.0, lam=6.0, k=0.1, boundary_layer=boundary_layer)
        before = replace(law)
        (first,) = _integrate_rows(system, [law], sampler, "right", x0)
        (second,) = _integrate_rows(system, [law], sampler, "right", x0)
        assert first.s_path is not None
        assert_same_batch(second, first)
        assert law == before


def exact_flow(mu, cov, x0, t0, t1):
    """Rectified-flow map of one Gaussian N(mu, Q diag(lam) Q^T) from time t0 to t1, rows of x0."""
    lam, q = np.linalg.eigh(cov)
    ratio = np.sqrt(t1**2 * lam + (1.0 - t1) ** 2) / np.sqrt(t0**2 * lam + (1.0 - t0) ** 2)
    return t1 * mu + ((x0 - t0 * mu) @ q * ratio) @ q.T


class TestExactFlow:
    """cfg at w = 1 on one correlated Gaussian follows its closed-form flow map."""

    MEAN = (1.5, -0.5)
    COV_LOWER = ((1.0,), (0.6, 0.8))

    def endpoint_errors(self, scheme, steps):
        system = SystemSpec(2, (ComponentSpec(1.0, self.MEAN, "full_lower", self.COV_LOWER),), {"only": (0,)}, "only")
        cfg = ExperimentConfig(
            system=system,
            controller=ControllerSpec("cfg", {"w": 1.0}),
            sampler=SamplerSpec(scheme, steps, 16, 23, True, 1e-4),
        )
        result = run_batch(cfg)
        assert result.n_divergent == 0
        grid = cfg.sampler.tau_grid()
        x0 = np.stack([trace.x_path[0] for trace in result.traces])
        cov = system.components[0].cov_matrix()
        exact = exact_flow(np.array(self.MEAN), cov, x0, float(grid[0]), float(grid[-1] + cfg.sampler.dtau))
        return np.linalg.norm(result.finals - exact, axis=1)

    # Measured ratios of the error at n steps to the error at 2n (n = 32, 64;
    # 16 start points): Euler 1.979-1.990, Heun 3.818-4.378. The bounds allow
    # 10 % around 2 and 15 % around 4.
    @pytest.mark.parametrize("scheme, low, high", [("euler", 1.8, 2.2), ("heun", 3.4, 4.6)])
    def test_convergence_order(self, scheme, low, high):
        errors = [self.endpoint_errors(scheme, steps) for steps in (32, 64, 128)]
        for coarse, fine in zip(errors, errors[1:]):
            ratio = coarse / fine
            assert low <= ratio.min() and ratio.max() <= high, (ratio.min(), ratio.max())

    def test_heun_endpoint_matches_closed_form(self):
        # measured largest error at 128 Heun steps: 2.2e-5; the bound allows 4.5x that
        assert self.endpoint_errors("heun", 128).max() <= 1e-4


class TestExports:
    def test_csv_column_order_and_blanks(self):
        cfg = two_comp_config(ControllerSpec("cfg", {"w": 2.0}), trajectories=2, steps=4)
        text = traces_to_csv(run_batch(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "run_id,step,tau,e_norm,s_norm,lyapunov,vhat_norm"
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert first[4] == "" and first[5] == ""  # no surface for plain cfg

    def test_csv_smc_has_surface_columns(self):
        cfg = two_comp_config(ControllerSpec("smc", {"w": 2.0, "lambda": 5.0, "k": 0.1}), trajectories=1, steps=4)
        row = traces_to_csv(run_batch(cfg)).strip().split("\n")[1].split(",")
        s_norm = float(row[4])
        lyap = float(row[5])
        assert lyap == pytest.approx(0.5 * s_norm**2)

    def test_json_round_trip(self):
        cfg = two_comp_config(ControllerSpec("cfg", {"w": 2.0}), trajectories=2, steps=4)
        payload = json.loads(traces_to_json(run_batch(cfg)))
        assert len(payload) == 2
        assert payload[0]["steps"][0]["s_norm"] is None
        assert len(payload[0]["x_final"]) == 2

    def test_repeat_runs_byte_identical(self):
        cfg = two_comp_config(ControllerSpec("smc", {"w": 5.0, "lambda": 6.0, "k": 0.1}), trajectories=5, steps=16)
        assert traces_to_csv(run_batch(cfg)) == traces_to_csv(run_batch(cfg))


def json_reference(traces):
    """The export as json.dumps writes it from per-step dicts."""
    columns = ("step", "tau", "e_norm", "s_norm", "lyapunov", "vhat_norm")
    payload = []
    for t in traces:
        n = len(t.tau)
        surface = [None] * n if t.s_norm is None else t.s_norm.tolist()
        lyap = [None] * n if t.s_norm is None else (0.5 * t.s_norm**2).tolist()
        rows = zip(range(n), t.tau.tolist(), t.e_norm.tolist(), surface, lyap, t.vhat_norm.tolist())
        payload.append({"run_id": t.run_id, "steps": [dict(zip(columns, r)) for r in rows], "x_final": t.x_final.tolist()})
    return json.dumps(payload, indent=2) + "\n"


def hand_batch(run_ids, tau, e_norm, vhat_norm, finals, s_norm=None):
    """A RunResult built from the given columns, with no flow system."""
    return RunResult(
        run_ids=np.asarray(run_ids, dtype=int), tau=tau, e_norm=e_norm, vhat_norm=vhat_norm, finals=finals,
        s_norm=s_norm, x_path=None, s_path=None, divergences={}, system=None, n_trajectories=len(run_ids),
    )


def odd_batch(surface):
    """Two rows holding NaN, infinities, -0.0, a subnormal and, with a surface, an overflowing energy."""
    odd = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1])
    rows = np.stack([odd[::-1], odd])
    finals = np.array([[np.nan, -np.inf], [1e-7, -0.0]])
    return hand_batch([4, 12], odd, rows, rows[::-1].copy(), finals, s_norm=rows[::-1].copy() if surface else None)


def empty_batch(steps=5):
    return hand_batch([], SamplerSpec("euler", steps).tau_grid(), np.zeros((0, steps)), np.zeros((0, steps)), np.zeros((0, 2)))


def csv_reference(traces):
    """The CSV export as a per-row writer spells it: the repr of every value, blank cells for no surface."""
    lines = ["run_id,step,tau,e_norm,s_norm,lyapunov,vhat_norm"]
    for t in traces:
        n = len(t.tau)
        surface = [None] * n if t.s_norm is None else t.s_norm.tolist()
        lyap = [None] * n if t.s_norm is None else (0.5 * t.s_norm**2).tolist()
        rows = zip(range(n), t.tau.tolist(), t.e_norm.tolist(), surface, lyap, t.vhat_norm.tolist())
        for step, *values in rows:
            cells = ["" if v is None else repr(v) for v in values]
            lines.append(f"{t.run_id},{step}," + ",".join(cells))
    return "\n".join(lines) + "\n"


class TestExportCells:
    """Both exporters read one table of cells per batch and match a writer that formats every value itself."""

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("controller", [ControllerSpec("cfg", {"w": 2.0}), SMC], ids=lambda c: c.type)
    def test_runs_match_the_references(self, controller, scheme, record_x):
        cfg = two_comp_config(controller, trajectories=3, steps=5, scheme=scheme)
        result = run_batch(replace(cfg, sampler=replace(cfg.sampler, record_x=record_x)))
        assert traces_to_csv(result) == csv_reference(result.traces)
        assert traces_to_json(result) == json_reference(result.traces)

    @staticmethod
    def check_non_finite(surface):
        result = odd_batch(surface)
        with np.errstate(over="ignore"):
            want_csv, want_json = csv_reference(result.traces), json_reference(result.traces)
            assert traces_to_csv(result) == want_csv
            assert traces_to_json(result) == want_json
        assert "nan" in want_csv and "-inf" in want_csv and "5e-324" in want_csv and "-0.0" in want_csv
        assert "NaN" in want_json and "-Infinity" in want_json and ("null" in want_json) != surface

    def test_non_finite_and_subnormal_values(self):
        self.check_non_finite(surface=True)

    def test_non_finite_and_subnormal_values_without_surface(self):
        self.check_non_finite(surface=False)

    def test_empty_batch(self):
        result = empty_batch()
        assert traces_to_csv(result) == csv_reference(result.traces) == "run_id,step,tau,e_norm,s_norm,lyapunov,vhat_norm\n"
        assert traces_to_json(result) == json_reference(result.traces) == "[]\n"

    def test_export_leaves_its_input_writable_and_unchanged(self):
        result = odd_batch(surface=True)
        columns = (result.tau, result.e_norm, result.vhat_norm, result.s_norm, result.finals)
        before = [c.tobytes() for c in columns]
        with np.errstate(over="ignore"):
            traces_to_csv(result)
            traces_to_json(result)
        assert all(c.flags.writeable for c in columns)
        assert [c.tobytes() for c in columns] == before

    def test_each_value_is_formatted_once(self, monkeypatch):
        real = cfgctrl.sampler._format
        formatted = []

        def counting(values):
            formatted.append(len(values))
            return real(values)

        monkeypatch.setattr(cfgctrl.sampler, "_format", counting)
        n, steps = 4, 6
        result = run_batch(two_comp_config(SMC, trajectories=n, steps=steps))
        csv = traces_to_csv(result)
        # the time grid, then e_norm, s_norm, lyapunov and vhat_norm of the whole batch
        assert formatted == [steps] + [n * steps] * 4
        json_text = traces_to_json(result)
        assert formatted == [steps] + [n * steps] * 4 + [n * 2]  # only the finals are new
        assert traces_to_csv(result) == csv and traces_to_json(result) == json_text
        assert formatted == [steps] + [n * steps] * 4 + [n * 2] * 2  # the finals once per JSON export


def zeroing_field(start, which, n):
    """velocity_pair with v_c (which = 0) or v_u (which = 1) zeroed on rows 1, 1 + n, ... from time ``start`` on."""
    real = cfgctrl.sampler.velocity_pair

    def field(system, x, t, cond):
        pair = real(system, x, t, cond)
        if t >= start:
            for i in which:
                pair[i][1::n] = 0.0
        return pair

    return field


class TestDegenerateRows:
    """A row on which a law is undefined is flagged; the rest of its block finishes."""

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("law, zeroed", [("apg", 0), ("cfg_zero_star", 1)])
    def test_bad_row_flagged_good_row_kept(self, monkeypatch, law, zeroed, scheme):
        cfg = two_comp_config(ControllerSpec(law, {"w": 5.0}), trajectories=2, steps=12, scheme=scheme)
        monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", zeroing_field(0.5, (zeroed,), 2))
        result = run_batch(cfg)
        integ = SamplerSpec(scheme, 12)
        first = integ.tau_grid() + (integ.dtau if scheme == "heun" else 0.0)  # latest field time of each step
        assert result.divergences == {1: int(np.argmax(first >= 0.5))}
        assert result.run_ids.tolist() == [0]
        x0 = stream_normals(cfg.sampler.seed, 1, 2)[0]
        want = reference_row(build_system(cfg.system), cfg.controller.law, cfg.sampler, "right", x0)
        for name, column in want.items():
            assert getattr(result, name)[0].tobytes() == column.tobytes(), name

    def test_compare_of_all_laws_finishes(self, monkeypatch):
        monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", zeroing_field(0.5, (0, 1), 3))
        results = lockstep("compare", "heun", trajectories=3)
        assert [r.n_divergent for r in results] == [0, 0, 1, 1, 0, 0]
        assert all(list(r.divergences) in ([], [1]) for r in results)

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_overflowing_gain_flags_every_row(self, scheme):
        # a dead row sits at the origin, where this gain's velocity overflows; Heun's predictor must not feed that to the field
        cfg = two_comp_config(ControllerSpec("rectified_cfgpp", {"w": 1e200}), trajectories=5, steps=12, scheme=scheme)
        result = run_batch(cfg)
        assert result.n_divergent == 5 and not result.traces

    @pytest.mark.parametrize("scheme, step", [("euler", 32), ("heun", 31)])
    def test_blown_up_smc_row_leaves_the_other_rows(self, monkeypatch, reference_config, scheme, step):
        cfg = replace(reference_config, sampler=replace(reference_config.sampler, scheme=scheme, trajectories=10, record_x=True))
        real = cfgctrl.sampler.velocity_pair

        def field(system, x, t, cond):  # trajectory 3's conditional velocity is 1e300 from tau = 0.5 on
            v_c, v_u = real(system, x, t, cond)
            if t >= 0.5:
                v_c[3] = 1e300
            return v_c, v_u

        monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", field)
        result = run_batch(cfg)
        assert result.divergences == {3: step} and result.run_ids.tolist() == [0, 1, 2, 4, 5, 6, 7, 8, 9]
        system, x0 = build_system(cfg.system), stream_normals(cfg.sampler.seed, 10, 2)
        for row, run_id in enumerate(result.run_ids.tolist()):  # every other row is its reference loop
            want = reference_row(system, cfg.controller.law, cfg.sampler, cfg.system.target, x0[run_id])
            for name, column in want.items():
                assert getattr(result, name)[row].tobytes() == column.tobytes(), (run_id, name)

    def test_single_vector_still_raises(self):
        with pytest.raises(ValueError, match="projection undefined"):
            cfgctrl.guidance.apg_combine(np.zeros(2), np.ones(2), 1.0, 0.5)
        row = cfgctrl.guidance.apg_combine(np.zeros((1, 2)), np.ones((1, 2)), 1.0, 0.5)
        assert np.isnan(row).all()


def blown_up_field(starts):
    """velocity_pair with the conditional velocity of each row in ``starts`` (of each call that has it) at 1e300 from its tau on."""
    real = cfgctrl.sampler.velocity_pair

    def field(system, x, t, cond):
        v_c, v_u = real(system, x, t, cond)
        for row, start in starts.items():
            if t >= start and len(v_c) > row:
                v_c[row] = 1e300
        return v_c, v_u

    return field


def assert_rows_match_traces(result):
    """The traces are row i of every column, bit for bit; the ids ascend and leave out exactly the divergent ones."""
    ids = result.run_ids.tolist()
    assert ids == sorted(set(ids))
    assert sorted(ids + list(result.divergences)) == list(range(result.n_trajectories))
    assert result.finals.shape == (len(ids), result.system.dim)
    assert result.e_norm.shape == result.vhat_norm.shape == (len(ids), len(result.tau))
    assert len(result.traces) == len(ids)
    for column in (result.run_ids, result.tau, result.e_norm, result.vhat_norm, result.finals, result.s_norm, result.x_path, result.s_path):
        assert column is None or not column.flags.writeable
    fields = {"e_norm": "e_norm", "vhat_norm": "vhat_norm", "x_final": "finals", "s_norm": "s_norm", "x_path": "x_path", "s_path": "s_path"}
    for i, trace in enumerate(result.traces):
        assert trace.run_id == ids[i] and type(trace.run_id) is int
        assert trace.tau is result.tau
        for field, name in fields.items():
            got, column = getattr(trace, field), getattr(result, name)
            assert (got is None) == (column is None), field
            if column is not None:
                assert got.shape == column[i].shape and got.tobytes() == column[i].tobytes(), (i, field)


def per_trace_decay(traces):
    """The gap-decay ratio as a loop over traces: mean of final over initial |e| where the initial one exceeds 1e-12."""
    ratios = []
    for trace in traces:
        first = float(trace.e_norm[0])
        if first > 1e-12:
            ratios.append(float(trace.e_norm[-1]) / first)
    return float(np.mean(ratios)) if ratios else None


class TestColumns:
    """A batch result holds per-row arrays; its traces are views of those rows, built on first read."""

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("case", ["clean", "zeroing_field", "blown_up_row", "later_row_first", "all_divergent"])
    def test_traces_are_rows_of_the_columns(self, monkeypatch, reference_config, case, scheme, record_x):
        cfg = replace(reference_config, sampler=replace(reference_config.sampler, scheme=scheme, trajectories=10, steps=24, record_x=record_x))
        if case == "zeroing_field":
            cfg = replace(cfg, controller=ControllerSpec("apg", {"w": 5.0}))
            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", zeroing_field(0.5, (0,), 3))
        elif case == "blown_up_row":
            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", blown_up_field({3: 0.5}))
        elif case == "later_row_first":
            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", blown_up_field({7: 0.25, 2: 0.6}))
        elif case == "all_divergent":
            cfg = replace(cfg, controller=ControllerSpec("rectified_cfgpp", {"w": 1e200}))
        result = run_batch(cfg)
        assert (result.n_divergent > 0) == (case != "clean")
        assert (result.x_path is not None) == record_x
        assert list(result.divergences) == sorted(result.divergences)
        assert_rows_match_traces(result)
        if case == "later_row_first":
            assert result.divergences[7] < result.divergences[2]
        if case == "all_divergent":
            assert result.n_divergent == 10
            assert result.finals.shape == (0, 2) and result.traces == []

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("blown_up", [False, True])
    def test_every_column_is_c_contiguous(self, monkeypatch, record_x, blown_up):
        # the lockstep state is kept in Fortran order; a mean over rows of a column keeps its bits only in C order
        if blown_up:
            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", blown_up_field({3: 0.5}))
        results = lockstep("compare", "heun", record_x=record_x)
        assert any(result.n_divergent for result in results) == blown_up
        for result in results:
            assert (result.x_path is not None) == record_x
            for name in ("run_ids", "tau", "e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
                column = getattr(result, name)
                assert column is None or column.flags.c_contiguous, name

    @pytest.mark.parametrize("case", ["compare", "sweep_k"])
    def test_lockstep_blocks_match_their_traces(self, case):
        for result in lockstep(case, "heun"):
            assert_rows_match_traces(result)

    @pytest.mark.parametrize("unguided", ["every_row", "every_third_row"])
    def test_decay_equals_the_per_trace_formula(self, monkeypatch, unguided):
        system = SystemSpec(
            dimension=2,
            components=(
                ComponentSpec(0.5, (3.0, 0.0), "diag", (1.0, 1.0)),
                ComponentSpec(0.5, (-3.0, 0.0), "diag", (1.0, 1.0)),
            ),
            conditions={"all": (0, 1), "right": (0,)},
            target="all",
        )
        cfg = ExperimentConfig(
            system=system,
            controller=ControllerSpec("cfg", {"w": 3.0}),
            sampler=SamplerSpec("euler", 16, 10, 5, False, 1e-4),
        )
        if unguided == "every_third_row":
            real = cfgctrl.sampler.velocity_pair

            def field(system, x, t, cond):  # no gap on rows 0, 3, 6, 9: those rows are unguided
                v_c, v_u = real(system, x, t, cond)
                v_u[::3] = v_c[::3]
                return v_c, v_u

            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", field)
            cfg = replace(cfg, system=replace(system, target="right"))
        result = run_batch(cfg)
        guided = result.e_norm[:, 0] > 1e-12
        assert guided.sum() == (0 if unguided == "every_row" else 6)
        want = per_trace_decay(result.traces)
        got = quality_report(result, build_system(cfg.system), cfg.system.target).e_decay_ratio
        assert repr(got) == repr(want)

    def test_compare_sweep_and_batch_statistics_build_no_trace(self, monkeypatch, tmp_path, reference_config):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["sampler"].update(trajectories=12, steps=16)
        raw["sampler"]["seed"] = 3
        raw["sweep"] = {"parameter": "w", "values": [1, 5, 1e300]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))

        def no_trace(*args, **kwargs):
            raise AssertionError("a Trace was built")

        monkeypatch.setattr(cfgctrl.sampler, "Trace", no_trace)
        laws = "cfg,weight_schedule,apg,cfg_zero_star,rectified_cfgpp,smc"
        assert cli_main(["compare", "--config", str(path), "--controllers", laws, "--out", str(tmp_path / "out")]) == 0
        assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        sweep_rows = json.loads(next((tmp_path / "out").glob("sweep_*_table.json")).read_text())["rows"]
        assert [row["status"] for row in sweep_rows] == ["ok", "ok", "failed: every trajectory diverged"]
        assert cli_main(["run", "--config", str(path), "--format", "csv,json,svg", "--out", str(tmp_path / "out")]) == 0
        assert len(list((tmp_path / "out").iterdir())) == 3 + 6 + 5
        cfg = replace(reference_config, sampler=replace(reference_config.sampler, trajectories=10_000))
        result = run_batch(cfg)
        report = quality_report(result, result.system, cfg.system.target)
        assert report.e_decay_ratio is not None and result.finals.shape == (10_000, 2)
        with pytest.raises(AssertionError, match="a Trace was built"):
            result.traces


def held_arrays(results):
    """The arrays a batch's columns hold their memory in: a column that is a view counts its whole base, once."""
    held = {}
    for result in results:
        for name in ("run_ids", "tau", "e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
            column = getattr(result, name)
            if column is not None:
                array = column if column.base is None else column.base
                held[id(array)] = array
    return list(held.values())


class TestMemory:
    """A pass peaks at its histories plus one history's copies, and each block's result holds only its own rows."""

    @staticmethod
    def assert_peak_within(call, cfg, surfaces):
        """``call()``, a pass of one law per entry of ``surfaces``, each on ``cfg``'s trajectories, True for a surface.

        Its traced peak must be at most the histories the pass allocates, each
        law's over its own rows, plus its largest result array, plus 1 MiB.
        """
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        results = result if isinstance(result, list) else [result]
        arrays = held_arrays(results)
        d = cfg.sampler.record_x * cfg.system.dimension
        row_steps = sum(2 + surface + d * (1 + surface) for surface in surfaces)
        histories = 8 * cfg.sampler.steps * cfg.sampler.trajectories * row_steps
        bound = histories + max(a.nbytes for a in arrays) + 2**20
        assert peak <= bound, f"traced peak {peak / 1e6:.2f} MB over {bound / 1e6:.2f} MB"
        return result

    @staticmethod
    def assert_owns_its_columns(result):
        """Each row column holds exactly its own bytes, not a view of an array wider than its block's kept rows."""
        for name in ("run_ids", "e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
            column = getattr(result, name)
            if column is not None:
                array = column if column.base is None else column.base
                assert array.nbytes == column.nbytes, name

    @pytest.fixture
    def heun_2k(self, reference_config):
        sampler = replace(reference_config.sampler, scheme="heun", steps=64, trajectories=2000)
        cfg = replace(reference_config, sampler=sampler)
        run_batch(replace(cfg, sampler=replace(sampler, trajectories=3)))  # a first run imports modules, traced too
        return cfg

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("law", [SMC, ControllerSpec("cfg", {"w": 5.0})], ids=["smc", "cfg"])
    def test_run_batch(self, heun_2k, law, record_x):
        cfg = replace(heun_2k, controller=law, sampler=replace(heun_2k.sampler, record_x=record_x))
        result = self.assert_peak_within(lambda: run_batch(cfg), cfg, [law is SMC])
        assert result.e_norm.shape == (2000, 64) and (result.x_path is not None) == record_x

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_compare_of_six_laws(self, heun_2k, scheme, record_x):
        # 1,000 rows per block; only smc's block has surface histories
        cfg = replace(heun_2k, sampler=replace(heun_2k.sampler, scheme=scheme, trajectories=1000, record_x=record_x))
        surfaces = [law.type == "smc" for law in COMPARE_LAWS]
        results = self.assert_peak_within(lambda: run_batches(cfg, list(COMPARE_LAWS)), cfg, surfaces)
        assert [result.s_norm is not None for result in results] == surfaces

    @pytest.mark.parametrize("record_x", [False, True])
    @pytest.mark.parametrize("blown_up", [False, True])
    def test_each_result_owns_its_columns(self, monkeypatch, record_x, blown_up):
        # six blocks in one pass, only smc's with a surface history; a blown-up row 3 leaves cfg's block, and
        # rectified_cfgpp's, whose own field calls see it too, 6 of their 7 rows
        if blown_up:
            monkeypatch.setattr(cfgctrl.sampler, "velocity_pair", blown_up_field({3: 0.5}))
        results = lockstep("compare", "heun", record_x=record_x)
        assert [result.n_divergent for result in results] == [blown_up, 0, 0, 0, blown_up, 0]
        for result in results:
            self.assert_owns_its_columns(result)
