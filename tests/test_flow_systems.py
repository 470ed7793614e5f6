import numpy as np
import pytest

from cfgctrl.flow_systems import (
    FlowSystem,
    GaussComponent,
    _mix,
    _normalize,
    data_responsibilities,
    default_bandwidth,
    marginal_velocity,
    mc_velocity_oracle,
    responsibilities,
    velocity_pair,
)
from cfgctrl.numerics import Rng

from conftest import draw_probe, layouts


def single_gaussian(mean, cov=None):
    mean = np.asarray(mean, dtype=float)
    cov = np.eye(len(mean)) if cov is None else cov
    return FlowSystem([GaussComponent(1.0, mean, cov)], {"only": [0]})


class TestMarginalVelocity:
    def test_velocity_at_path_mean_is_component_mean(self):
        mu = np.array([2.0, -1.0])
        sys1 = single_gaussian(mu)
        for tau in (0.1, 0.3, 0.7, 0.95):
            assert np.allclose(marginal_velocity(sys1, tau * mu, tau, None), mu, atol=1e-12)

    def test_standard_normal_at_half_time_is_zero(self):
        sys1 = single_gaussian([0.0, 0.0])
        x = np.array([1.7, 0.4])
        assert np.allclose(marginal_velocity(sys1, x, 0.5, None), 0.0, atol=1e-14)

    def test_affine_in_x_at_fixed_tau(self):
        cov = np.array([[1.5, 0.4], [0.4, 0.8]])
        sys1 = single_gaussian([1.0, 2.0], cov)
        a = np.array([0.3, -0.6])
        b = np.array([1.1, 0.9])
        mid = 0.5 * (a + b)
        tau = 0.4
        v_mid = marginal_velocity(sys1, mid, tau, None)
        v_avg = 0.5 * (marginal_velocity(sys1, a, tau, None) + marginal_velocity(sys1, b, tau, None))
        assert np.allclose(v_mid, v_avg, atol=1e-12)

    def test_batch_matches_single(self, reference_system):
        rng = Rng(11)
        xs = rng.standard_normal((7, 2))
        batch = marginal_velocity(reference_system, xs, 0.37, "right")
        for i in range(7):
            single = marginal_velocity(reference_system, xs[i], 0.37, "right")
            assert np.array_equal(batch[i], single)

    def test_tau_out_of_range(self, reference_system):
        with pytest.raises(ValueError):
            marginal_velocity(reference_system, np.zeros(2), 1.0, None)
        with pytest.raises(ValueError):
            marginal_velocity(reference_system, np.zeros(2), -0.1, None)

    def test_unknown_condition(self, reference_system):
        with pytest.raises(ValueError):
            marginal_velocity(reference_system, np.zeros(2), 0.5, "nope")

    def test_non_finite_probe(self, reference_system):
        with pytest.raises(ValueError):
            marginal_velocity(reference_system, np.array([np.inf, 0.0]), 0.5, None)


def three_component_system() -> FlowSystem:
    cov0 = np.array([[1.0, 0.3, 0.1], [0.3, 0.8, -0.2], [0.1, -0.2, 0.5]])
    return FlowSystem(
        [
            GaussComponent(0.3, np.array([2.0, 1.0, -1.0]), cov0),
            GaussComponent(0.5, np.array([-2.0, 0.5, 0.0]), np.diag([0.5, 2.0, 1.0])),
            GaussComponent(0.2, np.array([0.0, -3.0, 2.0]), np.diag([0.1, 0.3, 4.0])),
        ],
        {"pair": [0, 2], "one": [1]},
    )


class TestVelocityPair:
    @pytest.mark.parametrize("tau", [0.0, 1e-4, 0.2, 0.5, 0.83, 0.9999])
    def test_bits_equal_two_marginal_calls(self, reference_system, tau):
        rng = Rng(31)
        for system, cond in ((reference_system, "right"), (three_component_system(), "pair")):
            for shape in ((257, system.dim), (system.dim,)):
                x = 3.0 * rng.standard_normal(shape)
                v_c, v_u = velocity_pair(system, x, tau, cond)
                assert v_c.tobytes() == marginal_velocity(system, x, tau, cond).tobytes()
                assert v_u.tobytes() == marginal_velocity(system, x, tau, None).tobytes()
                assert v_c.shape == v_u.shape == x.shape

    def test_refuses_what_marginal_velocity_refuses(self, reference_system):
        with pytest.raises(ValueError, match="non-finite"):
            velocity_pair(reference_system, np.array([[0.0, 0.0], [np.nan, 1.0]]), 0.5, "right")
        with pytest.raises(ValueError, match="outside"):
            velocity_pair(reference_system, np.zeros(2), 1.0, "right")
        with pytest.raises(ValueError, match="unknown condition"):
            velocity_pair(reference_system, np.zeros(2), 0.5, "nope")

    @pytest.mark.parametrize("cov", [0.05 * np.eye(2), np.array([[0.05, 0.01], [0.01, 0.04]])],
                             ids=["unrotated", "rotated"])
    def test_underflowed_responsibility_matches_the_oracle(self, cov):
        """Probes so far from component 1 that its responsibility is exactly 0.0 and its weighted products ±0.0.

        Means of -0.0 in the second coordinate let both products of a row be -0.0 there.
        """
        system = FlowSystem([GaussComponent(0.5, np.array([-8.0, -0.0]), cov),
                             GaussComponent(0.5, np.array([8.0, -0.0]), cov)], {"near": [0]})
        rng = Rng(41)
        tau = 0.9
        x = tau * np.array([-8.0, 0.0]) + 0.5 * rng.standard_normal((64, 2))
        x[::8, 1] = 0.0
        x[1::8, 1] = -0.0
        assert (responsibilities(system, x, tau, None)[:, 1] == 0.0).all()
        v_c, v_u = velocity_pair(system, np.asfortranarray(x), tau, "near")
        assert v_c.tobytes() == row_major_velocity(system, x, tau, "near").tobytes()
        assert v_u.tobytes() == row_major_velocity(system, x, tau, None).tobytes()

    @staticmethod
    def one_component_cases() -> dict:
        """A condition of one unrotated component, one of a rotated component, and a one-component system."""
        # eigh sorts ascending, so diag [2, 0.5] has the swap of the axes as its eigenvectors
        pair = FlowSystem([GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2)),
                           GaussComponent(0.5, np.array([3.0, 0.0]), np.diag([2.0, 0.5]))],
                          {"left": [0], "right": [1], "both": [0, 1]})
        return {"unrotated": (pair, "left"), "rotated": (pair, "right"),
                "one-component system": (single_gaussian([1.0, -2.0]), "only")}

    @staticmethod
    def overflowing_probe() -> np.ndarray:
        """64 finite rows; in every even row one coordinate lies between 1e155 and 1e300, so its square overflows."""
        x = 3.0 * Rng(43).standard_normal((64, 2))
        big = np.logspace(155, 300, 16) * np.resize([1.0, -1.0], 16)
        x[::4, 0] = big
        x[2::4, 1] = big[::-1]
        return x

    @pytest.mark.parametrize("case", ["unrotated", "rotated", "one-component system"])
    def test_one_component_with_overflowed_squares_matches_the_oracle(self, case):
        """A lone component whose log is -inf on some rows takes the general path, so those rows stay NaN."""
        system, cond = self.one_component_cases()[case]
        x = self.overflowing_probe()
        # some rows overflowed, every row, one row of three, and none
        for probe, overflowed in ((x, True), (x[::2], True), (x[[0, 1, 3]], True), (x[1::2], False)):
            with np.errstate(over="ignore", invalid="ignore"):
                v_c, v_u = velocity_pair(system, np.asfortranarray(probe), 0.5, cond)
                expected_c = row_major_velocity(system, probe, 0.5, cond)
                expected_u = row_major_velocity(system, probe, 0.5, None)
            assert np.isnan(expected_c).any() == overflowed
            assert v_c.tobytes() == expected_c.tobytes()
            assert v_u.tobytes() == expected_u.tobytes()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_pairs_come_back_in_fortran_order(self, order):
        """The lone-component path, its fallback and the mix all hand back (n, d) arrays in Fortran order."""
        system, _ = self.one_component_cases()["rotated"]
        x = np.asarray(self.overflowing_probe(), order=order)
        for cond, probe, finite in (("right", x[1::2], True), ("right", x, False), ("both", x, False)):
            with np.errstate(over="ignore", invalid="ignore"):
                pair = velocity_pair(system, probe, 0.5, cond)
            assert np.isfinite(pair[0]).all() == finite, cond  # overflowed rows are NaN on the fallback and the mix
            for v in pair:
                assert v.shape == probe.shape and v.flags.f_contiguous, cond


# The field kernel before it worked on (d, n) columns, written out as the oracle for the kernel's bits:
# a (..., d) batch in C order, one component at a time, each per-coordinate step a numpy broadcast.


def row_major_pass(system: FlowSystem, x: np.ndarray, tau: float, log_norm: float):
    """Per component k: the log path density less the mixture weight, and the affine velocity."""
    x = np.ascontiguousarray(x, dtype=float)
    one_m = (1.0 - tau) ** 2
    logs, vels = {}, {}
    for k in range(system.n_components):
        spectrum = tau * tau * system._eigvals[k] + one_m
        q = system._eigvecs[k]
        z = (x - tau * system._means[k]) @ q
        logs[k] = -0.5 * (z * z / spectrum).sum(axis=-1) - 0.5 * float(np.log(spectrum).sum()) - log_norm
        gain = (tau * system._eigvals[k] - (1.0 - tau)) / spectrum
        vels[k] = (z * gain) @ q.T + system._means[k]
    return logs, vels


def row_major_posteriors(system: FlowSystem, logs: dict, idx) -> np.ndarray:
    w = system._weights[idx]
    resp = np.stack([logs[k] + float(np.log(w[j] / w.sum())) for j, k in enumerate(idx)], axis=-1)
    top = resp[..., 0].copy()
    for j in range(1, len(idx)):
        np.maximum(top, resp[..., j], out=top)
    p = np.exp(resp - top[..., None])
    return p / p.sum(axis=-1)[..., None]


def row_major_velocity(system: FlowSystem, x, tau: float, cond) -> np.ndarray:
    idx = system.component_indices(cond)
    logs, vels = row_major_pass(system, x, tau, 0.5 * system.dim * np.log(2.0 * np.pi))
    resp = row_major_posteriors(system, logs, idx)
    out = np.zeros(np.shape(x))
    for j, k in enumerate(idx):
        out = out + resp[..., j, None] * vels[k]
    return out


# Covariance kinds of random_system beyond False (diagonals in random order, whose eigh eigenvectors permute the
# axes) and True (full): IDENTITY components have identity eigenvectors (ascending diagonals, and c * I for every
# third component); a MIXED system cycles through an identity, a full and a randomly ordered diagonal component.
IDENTITY, MIXED = 2, 3


def random_system(dim: int, n_components: int, full: bool | int, seed: int) -> FlowSystem:
    rng = Rng(seed)
    weights = 0.2 + rng.uniform(n_components)
    comps = []
    for k in range(n_components):
        kind = (IDENTITY, True, False)[k % 3] if full == MIXED else full
        if kind is True:
            a = rng.standard_normal((dim, dim))
            cov = a @ a.T / dim + 0.5 * np.eye(dim)
        elif kind == IDENTITY:
            spectrum = np.sort(0.2 + 3.0 * rng.uniform(dim))
            cov = spectrum[0] * np.eye(dim) if k % 3 == 0 else np.diag(spectrum)
        else:
            cov = np.diag(0.2 + 3.0 * rng.uniform(dim))
        comps.append(GaussComponent(weights[k] / weights.sum(), 2.0 * rng.standard_normal(dim), cov))
    return FlowSystem(comps, {"half": list(range(0, n_components, 2))})


KERNEL_CASES = [(d, k, full) for d in (1, 2, 3, 7, 8, 9, 16) for k in (1, 2, 3, 9) for full in (False, True)] + [
    pytest.param(d, k, kind, id=f"{d}-{k}-{name}")
    for d in (1, 2, 3, 9, 16) for k in (2, 3, 9) for kind, name in ((IDENTITY, "identity"), (MIXED, "mixed"))
]
PROBE_SHAPES = [(), (0,), (1,), (200,), (3, 5)]


@pytest.mark.parametrize("dim, n_components, full", KERNEL_CASES)
class TestKernelBits:
    """Every public field function equals the row-major oracle bit for bit, whatever the probe's shape and layout."""

    @staticmethod
    def probes(dim: int, seed: int):
        rng = Rng(seed)
        for lead in PROBE_SHAPES:
            x = 3.0 * rng.standard_normal(lead + (dim,))
            for layout, probe in layouts(x).items():
                yield f"{lead} {layout}", x, probe

    def test_velocities(self, dim, n_components, full):
        system = random_system(dim, n_components, full, seed=1000 * dim + 10 * n_components + full)
        for i, tau in enumerate((0.0, 0.37, 0.9999)):
            for name, x, probe in self.probes(dim, seed=10 * dim + i):
                for cond in ("half", None):
                    expected = row_major_velocity(system, x, tau, cond)
                    got = marginal_velocity(system, probe, tau, cond)
                    assert got.shape == x.shape and got.tobytes() == expected.tobytes(), (name, tau, cond)
                v_c, v_u = velocity_pair(system, probe, tau, "half")
                assert v_c.shape == v_u.shape == x.shape
                assert v_c.tobytes() == row_major_velocity(system, x, tau, "half").tobytes(), (name, tau)
                assert v_u.tobytes() == row_major_velocity(system, x, tau, None).tobytes(), (name, tau)

    def test_responsibilities(self, dim, n_components, full):
        system = random_system(dim, n_components, full, seed=1000 * dim + 10 * n_components + full)
        for name, x, probe in self.probes(dim, seed=7 * dim):
            logs, _ = row_major_pass(system, x, 0.61, 0.5 * dim * np.log(2.0 * np.pi))
            data_logs, _ = row_major_pass(system, x, 1.0, 0.0)
            for cond in ("half", None):
                idx = system.component_indices(cond)
                shape = x.shape[:-1] + (len(idx),)
                got = responsibilities(system, probe, 0.61, cond)
                assert got.shape == shape and got.tobytes() == row_major_posteriors(system, logs, idx).tobytes(), name
                got = data_responsibilities(system, probe, cond)
                assert got.shape == shape and got.tobytes() == row_major_posteriors(system, data_logs, idx).tobytes()


class TestUnrotated:
    """The kernel skips the rotations of exactly the components whose eigenvectors are the identity."""

    def test_marks_exactly_identity_eigenvectors(self, reference_system):
        assert reference_system._unrotated == (True, True)
        # eigh sorts ascending, so diag [2, 0.5] has the swap of the axes as its eigenvectors
        swapped = FlowSystem([GaussComponent(0.5, np.zeros(2), np.eye(2)),
                              GaussComponent(0.5, np.ones(2), np.diag([2.0, 0.5]))])
        assert swapped._unrotated == (True, False)
        for kind in (False, True, IDENTITY, MIXED):
            for dim in (1, 2, 9):
                system = random_system(dim, 9, kind, seed=dim)
                expected = tuple(np.array_equal(q, np.eye(dim)) for q in system._eigvecs)
                assert system._unrotated == expected
                if kind == IDENTITY or dim == 1:
                    assert all(expected)
                elif kind == MIXED:  # identity, full and randomly ordered diagonal components in turn
                    assert expected[::3] == (True,) * 3 and expected[1::3] == (False,) * 3
                elif kind is True:
                    assert not any(expected)

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_signed_zeros_match_the_oracle(self, dim):
        """Means and probes holding -0.0 and 0.0: the skipped products could only have changed the sign of a zero."""
        rng = Rng(dim)
        means = [np.zeros(dim), -np.zeros(dim), np.where(np.arange(dim) % 2 == 0, -0.0, 1.5)]
        # unit eigenvalues give a zero gain at tau = 0.5, so a velocity is its mean there
        covs = [np.eye(dim), np.diag(np.linspace(1.0, 2.0, dim)), 2.0 * np.eye(dim)]
        system = FlowSystem([GaussComponent(w, mu, cov) for w, mu, cov in zip((0.25, 0.25, 0.5), means, covs)],
                            {"half": [0, 2]})
        assert all(np.array_equal(q, np.eye(dim)) for q in system._eigvecs)
        x = 3.0 * rng.standard_normal((40, dim))
        x[::4] = -0.0
        x[1::4] = 0.0
        x[2::4, ::2] = -0.0
        for tau in (0.0, 0.25, 0.5, 0.9999):
            for cond in ("half", None):
                expected = row_major_velocity(system, x, tau, cond)
                assert marginal_velocity(system, x, tau, cond).tobytes() == expected.tobytes(), (tau, cond)
            v_c, v_u = velocity_pair(system, np.asfortranarray(x), tau, "half")
            assert v_c.tobytes() == row_major_velocity(system, x, tau, "half").tobytes()
            assert v_u.tobytes() == row_major_velocity(system, x, tau, None).tobytes()
            logs, _ = row_major_pass(system, x, tau, 0.5 * dim * np.log(2.0 * np.pi))
            got = responsibilities(system, x, tau, None)
            assert got.tobytes() == row_major_posteriors(system, logs, np.arange(3)).tobytes()


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])


def every_combination(values: np.ndarray, count: int) -> np.ndarray:
    """(count, len(values) ** count): each column one of the ways to draw ``count`` entries from ``values``."""
    return np.array(np.meshgrid(*[values] * count, indexing="ij")).reshape(count, -1)


class TestKernelIdentities:
    """The kernel's shortcuts equal the formulas they replace on IEEE special values, bit for bit."""

    @pytest.mark.parametrize("n_components", [1, 2, 3])
    def test_normalize_equals_max_exp_divide(self, n_components):
        values = np.array([0.0, -0.0, 1e308, -1e308, np.inf, -np.inf, np.nan, 2.5])
        logs = every_combination(values, n_components)
        with np.errstate(invalid="ignore", over="ignore"):
            p = np.exp(logs - np.maximum.reduce(logs))
            expected = p / p.sum(axis=0)
            got = _normalize(logs.copy())
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_components", [1, 2, 3])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_mix_equals_the_sum_from_zero(self, n_components, dim):
        """Every (responsibility, velocity) pair from SPECIAL, for each component, in every combination."""
        pairs = every_combination(SPECIAL, 2 * n_components)
        resp = pairs[:n_components]
        idx = np.arange(n_components)[::-1]  # velocities are looked up by component index, in idx order
        vels = {k: np.stack([pairs[n_components + j]] + [pairs[n_components + j][::-1]] * (dim - 1))
                for j, k in enumerate(idx)}
        expected = np.zeros((dim, pairs.shape[1]))
        term = np.empty(expected.shape)
        with np.errstate(invalid="ignore"):
            for j, k in enumerate(idx):  # in place, as the kernel adds: numpy's two add loops keep different NaNs
                expected += np.multiply(resp[j], vels[k], out=term)
            got = _mix(resp, vels, idx)
        assert got.tobytes() == expected.tobytes()


class TestResponsibilities:
    def test_convex_combination(self, reference_system):
        rng = Rng(12)
        for _ in range(30):
            x, tau = draw_probe(rng, reference_system, None)
            r = responsibilities(reference_system, x, tau, None)
            assert (r >= 0.0).all()
            assert r.sum() == pytest.approx(1.0, abs=1e-10)

    def test_data_responsibilities_sum_to_one(self, reference_system):
        rng = Rng(13)
        x = rng.standard_normal((20, 2)) * 3.0
        r = data_responsibilities(reference_system, x)
        assert np.allclose(r.sum(axis=1), 1.0, atol=1e-12)


class TestErrorSignal:
    def test_full_support_condition_is_exactly_zero(self):
        comps = [
            GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)),
            GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2)),
        ]
        sys2 = FlowSystem(comps, {"all": [0, 1]})
        rng = Rng(14)
        for _ in range(10):
            x, tau = draw_probe(rng, sys2, None)
            v_c, v_u = velocity_pair(sys2, x, tau, "all")
            assert np.array_equal(v_c - v_u, np.zeros(2))

    def test_single_component_system_zero(self):
        sys1 = single_gaussian([1.0, 1.0])
        v_c, v_u = velocity_pair(sys1, np.array([0.5, 0.2]), 0.3, "only")
        assert np.array_equal(v_c - v_u, np.zeros(2))

    def test_guided_endpoint_error_smaller_than_start(self, reference_config):
        # Along a guided trajectory the conditional and unconditional
        # predictions converge, so the recorded gap shrinks end to end.
        from cfgctrl.sampler import run_batch

        result = run_batch(reference_config)
        e = np.stack([t.e_norm for t in result.traces])
        assert (e[:, -1] < e[:, 0]).mean() >= 0.9
        assert e[:, -1].mean() < 0.05 * e[:, 0].mean()


class TestMcOracle:
    def test_known_answer_single_gaussian(self):
        mu = np.array([2.0, -1.0])
        sys1 = single_gaussian(mu)
        tau = 0.45
        est, se = mc_velocity_oracle(sys1, tau * mu, tau, None, 50_000, default_bandwidth(tau), Rng(15))
        assert (np.abs(est - mu) <= 3.0 * se).all()

    def test_agreement_on_50_probes(self, reference_system):
        probe_rng = Rng(2024, 1)
        for i in range(50):
            cond = "right" if i % 2 == 0 else None
            x, tau = draw_probe(probe_rng, reference_system, cond)
            v = marginal_velocity(reference_system, x, tau, cond)
            est, se = mc_velocity_oracle(
                reference_system, x, tau, cond, 100_000, default_bandwidth(tau), Rng(9100, i)
            )
            assert (np.abs(est - v) <= 3.0 * se).all(), f"probe {i} at tau={tau}"

    def test_tiny_bandwidth_fails_ess(self, reference_system):
        with pytest.raises(ValueError, match="effective sample size"):
            mc_velocity_oracle(reference_system, np.zeros(2), 0.5, None, 10_000, 1e-6, Rng(16))

    def test_too_few_pairs_rejected(self, reference_system):
        with pytest.raises(ValueError, match="n_pairs"):
            mc_velocity_oracle(reference_system, np.zeros(2), 0.5, None, 100, 0.1, Rng(17))


class TestConstruction:
    @staticmethod
    def systems() -> list:
        return [three_component_system(), single_gaussian([1.0, 2.0]), random_system(3, 9, MIXED, seed=5)]

    def test_subset_tables_are_the_indices_and_log_weights(self, reference_system):
        for system in [reference_system, *self.systems()]:
            for cond in (None, *system.conditions):
                idx, log_w = system._subsets[cond]
                expected = np.arange(system.n_components) if cond is None else np.asarray(system.conditions[cond])
                assert idx.dtype == expected.dtype and np.array_equal(idx, expected)
                assert np.array_equal(system.component_indices(cond), idx)
                w = system._weights[idx]
                assert log_w.tobytes() == np.log(w / w.sum()).tobytes()

    def test_unknown_condition_named(self, reference_system):
        x = np.zeros((3, 2))
        for call in (lambda: velocity_pair(reference_system, x, 0.5, "nope"),
                     lambda: marginal_velocity(reference_system, x, 0.5, "nope"),
                     lambda: responsibilities(reference_system, x, 0.5, "nope"),
                     lambda: data_responsibilities(reference_system, x, "nope"),
                     lambda: reference_system.component_indices("nope")):
            with pytest.raises(ValueError, match="unknown condition 'nope'"):
                call()

    def test_shared_arrays_are_read_only(self, reference_system):
        for system in [reference_system, *self.systems()]:
            arrays = {name: getattr(system, name) for name in ("_weights", "_means", "_covs", "_chols", "_eigvals",
                                                                "_eigvecs")}
            for cond, (idx, log_w) in system._subsets.items():
                arrays[f"{cond} indices"], arrays[f"{cond} log weights"] = idx, log_w
                arrays[f"component_indices({cond})"] = system.component_indices(cond)
            for name, a in arrays.items():
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0
            with pytest.raises(TypeError):
                system.conditions["added"] = (0,)
            comp = system.component(0)  # copies the caller may write into
            comp.mean[...] = 7.0
            comp.cov[...] = 7.0
            assert not (system._means[0] == 7.0).all() and not (system._covs[0] == 7.0).all()

    def test_weights_must_sum_to_one(self):
        comps = [
            GaussComponent(0.6, np.zeros(2), np.eye(2)),
            GaussComponent(0.5, np.ones(2), np.eye(2)),
        ]
        with pytest.raises(ValueError, match="sum"):
            FlowSystem(comps)

    def test_empty_condition_rejected(self):
        with pytest.raises(ValueError, match="selects no components"):
            FlowSystem([GaussComponent(1.0, np.zeros(2), np.eye(2))], {"bad": []})

    def test_non_spd_cov_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            FlowSystem([GaussComponent(1.0, np.zeros(2), -np.eye(2))])

    def test_mixture_moments_single_component(self, reference_system):
        mean, cov = reference_system.mixture_moments("right")
        assert np.allclose(mean, [3.0, 0.0])
        assert np.allclose(cov, np.eye(2))

    def test_mixture_moments_full(self, reference_system):
        mean, cov = reference_system.mixture_moments(None)
        assert np.allclose(mean, [0.0, 0.0])
        # two symmetric modes at +-3 inflate the x variance by 9
        assert np.allclose(cov, np.diag([10.0, 1.0]))
