import math
import re
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from cfgctrl.flow_systems import FlowSystem, GaussComponent, marginal_velocity, velocity_pair
from cfgctrl.guidance import (
    CONTROLLERS,
    ControlLaw,
    SlidingState,
    StepContext,
    apg_combine,
    apply_controller,
    cfg_combine,
    cfg_zero_star_combine,
    rectified_cfgpp_combine,
    smc_step,
    weight_schedule,
)
from cfgctrl.numerics import Rng


def ctx_at(index=0, total=10, tau=0.1, dtau=0.1):
    return StepContext(index, total, tau, dtau)


class TestCfgCombine:
    def test_w_one_is_conditional(self):
        rng = Rng(20)
        v_c, v_u = rng.standard_normal((2, 4))
        assert np.allclose(cfg_combine(v_c, v_u, 1.0), v_c, atol=1e-12)

    def test_direct_substitution(self):
        out = cfg_combine(np.array([3.0, -1.0]), np.array([1.0, 1.0]), 1.5)
        assert np.allclose(out, [4.0, -2.0])

    def test_rearranged_form_identity(self):
        rng = Rng(21)
        for _ in range(100):
            v_c, v_u = rng.standard_normal((2, 5))
            w = float(3.0 * rng.uniform())
            lhs = cfg_combine(v_c, v_u, w)
            rhs = (1.0 - w) * v_u + w * v_c
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros(3), np.zeros(2), 1.0)


class TestWeightSchedule:
    def test_linear_boundaries(self):
        assert weight_schedule(ctx_at(index=0, total=20), "linear", 8.0) == 1.0
        assert weight_schedule(ctx_at(index=19, total=20), "linear", 8.0) == 8.0

    def test_cosine_boundaries_and_midpoint(self):
        assert weight_schedule(ctx_at(index=0, total=9), "cosine", 5.0) == pytest.approx(1.0, abs=1e-12)
        assert weight_schedule(ctx_at(index=8, total=9), "cosine", 5.0) == pytest.approx(5.0, abs=1e-12)
        mid = weight_schedule(ctx_at(index=4, total=9), "cosine", 5.0)
        assert mid == pytest.approx((1.0 + 5.0) / 2.0, abs=1e-12)

    def test_monotone_non_decreasing(self):
        for shape in ("linear", "cosine"):
            values = [weight_schedule(ctx_at(index=i, total=30), shape, 12.0) for i in range(30)]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_w_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            weight_schedule(ctx_at(), "linear", 0.5)

    def test_unknown_shape(self):
        with pytest.raises(ValueError):
            weight_schedule(ctx_at(), "cubic", 2.0)


class TestApgCombine:
    def test_collinear_gap(self):
        v_u = np.array([-1.0, 0.0])
        v_c = np.array([1.0, 0.0])
        w, eta = 3.0, 0.25
        out = apg_combine(v_c, v_u, w, eta)
        assert np.allclose(out, v_u + w * eta * (v_c - v_u), atol=1e-14)

    def test_orthogonal_gap(self):
        v_u = np.array([1.0, -3.0])
        v_c = np.array([1.0, 0.0])
        w = 2.0
        out = apg_combine(v_c, v_u, w, 0.1)
        assert np.allclose(out, v_u + w * (v_c - v_u), atol=1e-14)

    def test_eta_one_is_cfg(self):
        rng = Rng(22)
        for _ in range(100):
            v_c, v_u = rng.standard_normal((2, 4))
            w = float(5.0 * rng.uniform())
            assert np.allclose(apg_combine(v_c, v_u, w, 1.0), cfg_combine(v_c, v_u, w), atol=1e-12)

    def test_decomposition_properties(self):
        rng = Rng(23)
        for _ in range(100):
            v_c, v_u = rng.standard_normal((2, 6))
            dv = v_c - v_u
            norm_sq = float(np.dot(v_c, v_c))
            dv_par = np.dot(dv, v_c) / norm_sq * v_c
            dv_perp = dv - dv_par
            assert np.allclose(dv_par + dv_perp, dv, atol=1e-12)
            assert abs(np.dot(dv_perp, v_c)) <= 1e-10 * np.linalg.norm(dv) * np.linalg.norm(v_c)

    def test_zero_conditional_rejected(self):
        with pytest.raises(ValueError):
            apg_combine(np.zeros(2), np.ones(2), 1.0, 0.5)


class TestCfgZeroStar:
    def test_collinear(self):
        v_u = np.array([1.0, 2.0])
        out = cfg_zero_star_combine(2.0 * v_u, v_u, 7.0)
        assert np.allclose(out, 2.0 * v_u, atol=1e-12)

    def test_orthogonal(self):
        v_u = np.array([1.0, 0.0])
        v_c = np.array([0.0, 2.0])
        w = 3.0
        assert np.allclose(cfg_zero_star_combine(v_c, v_u, w), w * v_c, atol=1e-14)

    def test_forced_unit_rescale_is_cfg(self):
        # pinning the rescale factor at 1 collapses the law to plain guidance
        rng = Rng(31)
        for _ in range(100):
            v_c, v_u = rng.standard_normal((2, 4))
            w = float(5.0 * rng.uniform())
            s_star = 1.0
            forced = s_star * v_u + w * (v_c - s_star * v_u)
            assert np.array_equal(forced, cfg_combine(v_c, v_u, w))

    def test_residual_orthogonal_to_unconditional(self):
        rng = Rng(24)
        for _ in range(100):
            v_c, v_u = rng.standard_normal((2, 5))
            s_star = np.dot(v_c, v_u) / np.dot(v_u, v_u)
            residual = v_c - s_star * v_u
            assert abs(np.dot(residual, v_u)) <= 1e-10 * np.linalg.norm(v_c) * np.linalg.norm(v_u)

    def test_zero_unconditional_rejected(self):
        with pytest.raises(ValueError):
            cfg_zero_star_combine(np.ones(2), np.zeros(2), 1.0)


class TestSmcStep:
    def test_first_step_by_hand(self):
        v_u = np.zeros(2)
        v_c = np.array([1.0, 0.0])
        v_hat, new_state, delta_e = smc_step(v_c, v_u, SlidingState(), w=1.0, lam=5.0, k=0.1)
        assert np.allclose(new_state.s, [5.0, 0.0])
        assert np.allclose(delta_e, [-0.1, 0.0])
        assert np.allclose(v_hat, [0.9, 0.0])
        assert np.array_equal(new_state.e_prev, [1.0, 0.0])

    def test_k_zero_matches_cfg_bitwise(self):
        rng = Rng(25)
        state = SlidingState()
        for _ in range(50):
            v_c, v_u = rng.standard_normal((2, 3))
            v_hat, state, _ = smc_step(v_c, v_u, state, w=4.0, lam=6.0, k=0.0)
            assert np.array_equal(v_hat, cfg_combine(v_c, v_u, 4.0))

    def test_surface_recurrence_geometric_sequence(self):
        # e_n = (1 - lam) e_{n-1} sits on the surface: s = 0 from step 1 on.
        lam = 3.0
        state = SlidingState()
        e = np.array([2.0, -1.0])
        v_u = np.zeros(2)
        for step in range(6):
            _, state, delta_e = smc_step(e, v_u, state, w=1.0, lam=lam, k=0.5)
            if step > 0:
                assert np.allclose(state.s, 0.0, atol=1e-12)
                assert np.array_equal(delta_e, np.zeros(2))
            e = (1.0 - lam) * e

    def test_switch_bounded_by_k(self):
        rng = Rng(26)
        state = SlidingState()
        for _ in range(50):
            v_c, v_u = rng.standard_normal((2, 4))
            _, state, delta_e = smc_step(v_c, v_u, state, w=2.0, lam=6.0, k=0.37)
            assert np.abs(delta_e).max() <= 0.37 + 1e-15

    def test_boundary_layer_saturates(self):
        v_c = np.array([0.4, 0.0])  # first step: s = lam * e = (2, 0), inside layer
        _, _, delta_e = smc_step(v_c, np.zeros(2), SlidingState(), w=1.0, lam=5.0, k=1.0, boundary_layer=10.0)
        assert np.allclose(delta_e, [-0.2, 0.0])

    def test_stores_uncorrected_error(self):
        v_c = np.array([1.0, -2.0])
        _, state, _ = smc_step(v_c, np.zeros(2), SlidingState(), w=1.0, lam=5.0, k=0.3)
        assert np.array_equal(state.e_prev, v_c)


class TestRectifiedCfgpp:
    @pytest.fixture()
    def system(self):
        comps = [
            GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)),
            GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2)),
        ]
        return FlowSystem(comps, {"right": [0], "all": [0, 1]})

    def evaluator(self, system, cond):
        def ev(x, tau):
            return (
                marginal_velocity(system, x, tau, cond),
                marginal_velocity(system, x, tau, None),
            )

        return ev

    def test_zero_gain_returns_conditional(self, system):
        ev = self.evaluator(system, "right")
        x = np.array([0.5, 0.5])
        ctx = ctx_at(index=2, total=10, tau=0.3, dtau=0.05)
        out = rectified_cfgpp_combine(ev, x, ctx, 0.0, 1.0)
        assert np.array_equal(out, marginal_velocity(system, x, 0.3, "right"))

    def test_zero_gap_system_returns_conditional(self, system):
        ev = self.evaluator(system, "all")
        x = np.array([0.2, -0.4])
        ctx = ctx_at(index=2, total=10, tau=0.3, dtau=0.05)
        out = rectified_cfgpp_combine(ev, x, ctx, 4.0, 1.0)
        assert np.allclose(out, marginal_velocity(system, x, 0.3, "all"), atol=1e-14)

    def test_power_past_the_floats_gives_an_infinite_gain(self, system):
        # tau**gamma at tau = 1e-4, gamma = -80 is past the floats: a float power raises there, numpy's gives inf
        ctx = ctx_at(index=0, total=10, tau=1e-4, dtau=0.1)
        with np.errstate(all="ignore"):
            out = rectified_cfgpp_combine(self.evaluator(system, "right"), np.array([0.5, 0.5]), ctx, 4.0, -80.0)
        assert not np.isfinite(out).any()

    def test_a_non_finite_midpoint_fails_only_its_row(self, system):
        # a batch evaluates that row at the origin, and its non-finite v_c keeps its output non-finite
        ev = self.evaluator(system, "right")
        x = np.array([[0.1, 0.8], [0.3, -0.2], [-0.5, 0.4]])
        ctx = ctx_at(index=2, total=10, tau=0.3, dtau=0.05)
        v_c = ev(x, 0.3)[0]
        v_c[1, 0] = np.inf
        with np.errstate(invalid="ignore"):
            out = rectified_cfgpp_combine(ev, x, ctx, 2.0, 1.0, v_c=v_c)
        assert not np.isfinite(out[1]).all()
        for row in (0, 2):
            alone = rectified_cfgpp_combine(ev, x[row:row + 1], ctx, 2.0, 1.0, v_c=v_c[row:row + 1])
            assert out[row:row + 1].tobytes() == alone.tobytes()
        with pytest.raises(ValueError, match="probe point has non-finite entries"):
            rectified_cfgpp_combine(ev, x[1], ctx, 2.0, 1.0, v_c=v_c[1])

    def test_midpoint_stays_below_one(self, system):
        # halfway from the last float below 1 to 1 rounds to 1, where the flow degenerates
        taus = []

        def ev(x, tau):
            taus.append(tau)
            return self.evaluator(system, "right")(x, tau)

        tau = math.nextafter(1.0, 0.0)
        ctx = ctx_at(index=9, total=10, tau=tau, dtau=0.1)
        out = rectified_cfgpp_combine(ev, np.array([[0.1, 0.8]]), ctx, 2.0, 1.0)
        assert taus == [tau, tau] and np.isfinite(out).all()

    def test_matches_hand_composed_predictor_corrector(self, system):
        x = np.array([0.1, 0.8])
        tau, dtau = 0.4, 0.1
        lam_max, gamma = 2.5, 1.3
        ctx = ctx_at(index=4, total=10, tau=tau, dtau=dtau)
        out = rectified_cfgpp_combine(self.evaluator(system, "right"), x, ctx, lam_max, gamma)

        v_c = marginal_velocity(system, x, tau, "right")
        x_mid = x + 0.5 * dtau * v_c
        gap_mid = marginal_velocity(system, x_mid, tau + 0.5 * dtau, "right") - marginal_velocity(
            system, x_mid, tau + 0.5 * dtau, None
        )
        alpha = lam_max * tau**gamma
        assert np.allclose(out, v_c + alpha * gap_mid, atol=1e-14)


class TestApplyController:
    def test_cfg_dispatch(self):
        rng = Rng(27)
        v_c, v_u = rng.standard_normal((2, 3))
        law = ControlLaw("cfg", w=2.5)
        out, state = apply_controller(law, v_c, v_u, np.zeros(3), ctx_at(), state=law.initial_state())
        assert np.array_equal(out, cfg_combine(v_c, v_u, 2.5))
        assert state is None

    def test_schedule_at_final_step_equals_cfg(self):
        rng = Rng(28)
        v_c, v_u = rng.standard_normal((2, 3))
        law = ControlLaw("weight_schedule", w=6.0, shape="linear")
        ctx = ctx_at(index=9, total=10)
        out, state = apply_controller(law, v_c, v_u, np.zeros(3), ctx)
        assert np.array_equal(out, cfg_combine(v_c, v_u, 6.0))
        assert state is None

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ControlLaw("pid", w=1.0)
        law = ControlLaw("cfg", w=1.0)
        with pytest.raises(FrozenInstanceError):
            law.variant = "pid"
        assert law.variant == "cfg"

    def test_smc_state_updates_only_when_asked(self):
        law = ControlLaw("smc", w=2.0, lam=5.0, k=0.1)
        rng = Rng(29)
        v_c, v_u = rng.standard_normal((2, 3))
        _, state = apply_controller(law, v_c, v_u, np.zeros(3), ctx_at(), state=law.initial_state())
        e_after, s_after = state.e_prev.copy(), state.s.copy()
        v_c2, v_u2 = rng.standard_normal((2, 3))
        _, discarded = apply_controller(law, v_c2, v_u2, np.zeros(3), ctx_at(index=1), state=state)
        assert np.array_equal(state.e_prev, e_after) and np.array_equal(state.s, s_after)  # the state given is kept
        assert not np.array_equal(discarded.e_prev, e_after)

    def test_smc_without_a_state_is_refused(self):
        law = ControlLaw("smc", w=2.0)
        with pytest.raises(ValueError, match=r"^smc steps from a state: pass law\.initial_state\(\)"):
            apply_controller(law, np.ones(3), np.zeros(3), np.zeros(3), ctx_at())

    def test_reset_clears_state(self):
        law = ControlLaw("smc", w=2.0, lam=5.0, k=0.1)
        rng = Rng(30)
        v_c, v_u = rng.standard_normal((2, 3))
        _, state = apply_controller(law, v_c, v_u, np.zeros(3), ctx_at(), state=law.initial_state())
        assert state.e_prev is not None
        assert law.initial_state().e_prev is None


def refused(field: str, message: str, valid: float, bad: float | None = None) -> list:
    """A NaN ``field``, and for a gain (``bad`` given) (3, 1) columns of ``valid`` holding one NaN or one ``bad``."""
    cases = [pytest.param(field, message, float("nan"), id=f"{field}-{message}")]
    if bad is not None:
        cases += [pytest.param(field, message, np.array([[valid], [np.nan], [valid]]), id=f"{field}-nan-in-column"),
                  pytest.param(field, message, np.array([[valid], [valid], [bad]]), id=f"{field}-{bad:g}-in-column")]
    return cases


class TestNanRefused:
    """Every bound is written so that NaN fails it; a per-row gain column fails it on any one entry."""

    @pytest.mark.parametrize("field, message, value", refused("dtau", "step size", 0.1))
    def test_step_context(self, field, message, value):
        with pytest.raises(ValueError, match=message):
            ctx_at(**{field: value})

    @pytest.mark.parametrize("field, key, value", refused("w", "w", 5.0, -1.0) + refused("lam", "lambda", 6.0, 0.0)
                             + refused("k", "k", 0.1, -0.5) + refused("boundary_layer", "boundary_layer", 0.0))
    def test_smc_step(self, field, key, value):
        message = f"^{key}: {CONTROLLERS['smc'].keys[key].message}$"  # the step and the law name the config key
        gains = {"w": 5.0, "lam": 6.0, "k": 0.1, "boundary_layer": 0.0} | {field: value}
        with pytest.raises(ValueError, match=message):
            smc_step(np.ones((3, 2)), np.zeros((3, 2)), SlidingState(), **gains)
        with pytest.raises(ValueError, match=message):
            ControlLaw("smc", **{field: value})

    @pytest.mark.parametrize("shape", ["linear", "cosine"])
    def test_weight_schedule_w_max(self, shape):
        with pytest.raises(ValueError, match="must be at least 1"):
            weight_schedule(ctx_at(), shape, float("nan"))

    def test_apg_eta(self):
        with pytest.raises(ValueError, match="^eta: must be at most 1$"):
            apg_combine(np.ones((2, 3)), np.zeros((2, 3)), 2.0, float("nan"))


@pytest.mark.parametrize("variant, field, value, message", [
    ("apg", "eta", 2.0, "eta: must be at most 1"),
    ("weight_schedule", "w", 0.5, "w_max: must be at least 1"),
    ("weight_schedule", "shape", "zig", "shape: unknown shape 'zig'"),
    ("cfg", "w", -1.0, "w: guidance scale must be nonnegative"),
    ("cfg", "w", float("nan"), "w: guidance scale must be nonnegative"),
    ("cfg", "w", np.array([[5.0], [np.nan], [5.0]]), "w: guidance scale must be nonnegative"),
    ("smc", "lam", np.array([[6.0], [np.nan], [6.0]]), "lambda: must be positive"),
], ids=["apg-eta", "weight_schedule-w_max", "weight_schedule-shape", "cfg-w", "cfg-w-nan", "cfg-w-nan-in-column",
        "smc-lambda-nan-in-column"])
def test_law_breaking_a_key_is_refused_when_built(variant, field, value, message):
    # each of these once built, then raised at its first step
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ControlLaw(variant, **{field: value})


def _swept_gains():
    """Every law and gain a sweep can make a column: w on each law that takes it; w, lam and k on smc, with and
    without a boundary layer."""
    for variant in ("cfg", "apg", "cfg_zero_star", "rectified_cfgpp"):
        yield variant, "w", {}
    for field in ("w", "lam", "k"):
        for layer in (0.0, 0.05):
            yield "smc", field, {"boundary_layer": layer}


@pytest.mark.parametrize("variant, field, params", list(_swept_gains()))
def test_gain_column_gives_each_row_its_scalar_bits(variant, field, params):
    gains = [6.0, 0.5, 2.0, 0.0 if field != "lam" else 1e-3]  # k = 0 and w = 0 switch and guide nothing

    def evaluator(x, t):
        return np.sin(x + t), np.cos(2.0 * x) * t

    rng = np.random.default_rng(41)
    column = ControlLaw(variant, **params, **{field: np.array(gains)[:, None]})
    scalars = [ControlLaw(variant, **params, **{field: gain}) for gain in gains]
    column_state, states = column.initial_state(), [law.initial_state() for law in scalars]
    for step in range(4):  # smc carries its surface from step to step
        v_c, v_u, x = rng.standard_normal((3, len(gains), 3))
        ctx = ctx_at(step, tau=0.2 * step + 0.1)
        got, column_state = apply_controller(column, v_c, v_u, x, ctx, evaluator, column_state)
        for i, law in enumerate(scalars):
            rows = slice(i, i + 1)
            want, states[i] = apply_controller(law, v_c[rows], v_u[rows], x[rows], ctx, evaluator, states[i])
            assert got[rows].tobytes() == want.tobytes(), (step, i)
            if column_state is not None:
                assert column_state.s[rows].tobytes() == states[i].s.tobytes(), (step, i)


def read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a)
    a.flags.writeable = False
    return a


def formula_smc_step(v_c, v_u, state: SlidingState, w, lam, k, boundary_layer):
    """smc_step as its docstring writes it, one fresh array per operation: (v_hat, e, s, delta_e)."""
    e = v_c - v_u
    e_prev = e if state.e_prev is None else state.e_prev
    s = (e - e_prev) + lam * e_prev
    switch = np.clip(s / boundary_layer, -1.0, 1.0) if boundary_layer > 0.0 else np.sign(s)
    delta_e = -k * switch
    return v_u + w * (e + delta_e), e, s, delta_e


SHAPES = [(64, 3), (3,)]


class TestInPlaceSafety:
    """Laws never write into their inputs and return fresh arrays, which the sampler then overwrites."""

    @pytest.fixture(scope="class")
    def system(self):
        return FlowSystem(
            [GaussComponent(0.3, np.array([2.0, 1.0, -1.0]), np.diag([0.5, 1.0, 2.0])),
             GaussComponent(0.7, np.array([-2.0, 0.5, 0.0]), np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2],
                                                                         [0.1, -0.2, 0.5]]))],
            {"one": [0]},
        )

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("variant, params", [(v, {}) for v in CONTROLLERS] + [("smc", {"boundary_layer": 0.05})])
    def test_reads_only_and_returns_fresh(self, system, variant, params, shape):
        def evaluator(x, tau):
            return tuple(map(read_only, velocity_pair(system, x, tau, "one")))

        law = ControlLaw(variant, w=3.0, **params)
        x = read_only(2.0 * Rng(40).standard_normal(shape))
        state = law.initial_state()
        for step, tau in enumerate((0.3, 0.4, 0.5)):
            v_c, v_u = evaluator(x, tau)
            given = [state.e_prev, state.s] if state is not None and state.e_prev is not None else []
            out, state = apply_controller(law, v_c, v_u, x, StepContext(step, 3, tau, 0.1), evaluator, state)
            held = [v_c, v_u, x] + given + ([state.e_prev, state.s] if state is not None else [])
            assert out.shape == x.shape and out.flags.writeable
            assert not any(np.shares_memory(out, a) for a in held), (variant, step)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("boundary_layer", [0.0, 0.05])
    def test_two_smc_steps_keep_the_formula_bits(self, shape, boundary_layer):
        rng = Rng(41)
        state = expected = SlidingState()
        gains = {"w": 5.0, "lam": 6.0, "k": 0.1, "boundary_layer": boundary_layer}
        for step in range(2):
            v_c, v_u = map(read_only, rng.standard_normal((2,) + shape))
            v_hat, state, got_delta_e = smc_step(v_c, v_u, state, **gains)
            want, e, s, delta_e = formula_smc_step(v_c, v_u, expected, **gains)
            expected = SlidingState(e_prev=e, s=s)
            assert v_hat.tobytes() == want.tobytes()
            assert got_delta_e.tobytes() == delta_e.tobytes()
            assert state.e_prev.tobytes() == e.tobytes() and state.s.tobytes() == s.tobytes()
            held = [v_hat, state.e_prev, state.s, got_delta_e]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(held) for b in held[:i])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_combines_keep_the_formula_bits(self, system, shape):
        rng = Rng(42)
        v_c, v_u = map(read_only, 3.0 * rng.standard_normal((2,) + shape))
        w, eta = 3.7, 0.3
        assert cfg_combine(v_c, v_u, w).tobytes() == (v_u + w * (v_c - v_u)).tobytes()

        dv = v_c - v_u
        dv_par = ((dv * v_c).sum(axis=-1)[..., None] / (v_c * v_c).sum(axis=-1)[..., None]) * v_c
        want = v_u + w * ((dv - dv_par) + eta * dv_par)
        assert apg_combine(v_c, v_u, w, eta).tobytes() == want.tobytes()

        base = ((v_c * v_u).sum(axis=-1)[..., None] / (v_u * v_u).sum(axis=-1)[..., None]) * v_u
        assert cfg_zero_star_combine(v_c, v_u, w).tobytes() == (base + w * (v_c - base)).tobytes()

        def evaluator(x, tau):
            return velocity_pair(system, x, tau, "one")

        x = read_only(rng.standard_normal(shape))
        ctx = ctx_at(index=3, total=10, tau=0.4, dtau=0.1)
        v_c, v_u = evaluator(x, 0.4)
        v_c_mid, v_u_mid = evaluator(x + 0.5 * 0.1 * v_c, 0.45)
        want = v_c + (2.5 * 0.4**1.3) * (v_c_mid - v_u_mid)
        assert rectified_cfgpp_combine(evaluator, x, ctx, 2.5, 1.3, v_c=read_only(v_c)).tobytes() == want.tobytes()
