import numpy as np
import pytest

from cfgctrl.config import ComponentSpec, ControllerSpec, ExperimentConfig, SamplerSpec, SystemSpec
from cfgctrl.flow_systems import FlowSystem, GaussComponent
from cfgctrl.metrics import (
    audit_surface_series,
    chi_mean,
    fit_gaussian,
    line_residual,
    mean_reach_step,
    phase_plane,
    quality_report,
    w2_gaussian,
)
from cfgctrl.numerics import Rng
from cfgctrl.sampler import RunResult, Trace, run_batch

from conftest import gaussian_sample


def make_trace(e_norm, dtau=0.1, s_norm=None):
    e = np.asarray(e_norm, dtype=float)
    taus = 0.001 + dtau * np.arange(len(e))
    return Trace(
        run_id=0,
        tau=taus,
        e_norm=e,
        vhat_norm=np.ones_like(e),
        x_final=np.zeros(2),
        s_norm=None if s_norm is None else np.asarray(s_norm, dtype=float),
    )


class TestW2Gaussian:
    def test_identical_is_zero(self):
        # the trace term cancels to ~1e-15 and the outer sqrt lifts that to ~1e-7
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        mu = np.array([1.0, -2.0])
        assert w2_gaussian(mu, cov, mu, cov) == pytest.approx(0.0, abs=1e-7)

    def test_pure_mean_shift_1d(self):
        assert w2_gaussian([0.0], [[1.0]], [3.0], [[1.0]]) == pytest.approx(3.0, abs=1e-12)

    def test_symmetry(self):
        rng = Rng(40)
        for _ in range(20):
            a = rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2))
            cov1 = a @ a.T + 0.5 * np.eye(2)
            cov2 = b @ b.T + 0.5 * np.eye(2)
            mu1, mu2 = rng.standard_normal((2, 2))
            assert w2_gaussian(mu1, cov1, mu2, cov2) == pytest.approx(
                w2_gaussian(mu2, cov2, mu1, cov1), abs=1e-10
            )

    def test_triangle_inequality(self):
        rng = Rng(41)
        for _ in range(20):
            mats = []
            mus = rng.standard_normal((3, 2))
            for _ in range(3):
                a = rng.standard_normal((2, 2))
                mats.append(a @ a.T + 0.5 * np.eye(2))
            d01 = w2_gaussian(mus[0], mats[0], mus[1], mats[1])
            d12 = w2_gaussian(mus[1], mats[1], mus[2], mats[2])
            d02 = w2_gaussian(mus[0], mats[0], mus[2], mats[2])
            assert d02 <= d01 + d12 + 1e-8

    def test_against_empirical_assignment_oracle(self):
        scipy_opt = pytest.importorskip("scipy.optimize")
        mu1 = np.array([0.5, -1.0])
        cov1 = np.array([[2.0, 0.6], [0.6, 1.0]])
        mu2 = np.array([-0.7, 0.4])
        cov2 = np.array([[1.2, -0.3], [-0.3, 0.8]])
        closed = w2_gaussian(mu1, cov1, mu2, cov2)
        rng = Rng(88)
        a = gaussian_sample(rng, mu1, cov1, size=10_000)
        b = gaussian_sample(rng, mu2, cov2, size=10_000)
        estimates = []
        for i in range(4):
            sa = a[i * 1200 : (i + 1) * 1200]
            sb = b[i * 1200 : (i + 1) * 1200]
            cost = ((sa[:, None, :] - sb[None, :, :]) ** 2).sum(-1)
            rows, cols = scipy_opt.linear_sum_assignment(cost)
            estimates.append(np.sqrt(cost[rows, cols].mean()))
        empirical = float(np.mean(estimates))
        assert abs(empirical - closed) <= 0.05 * closed

    def test_non_spd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            w2_gaussian([0.0], [[-1.0]], [0.0], [[1.0]])


class TestGaussFit:
    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.zeros((2, 2)))

    def test_recovers_moments(self):
        rng = Rng(42)
        cov = np.array([[1.5, 0.4], [0.4, 0.9]])
        samples = gaussian_sample(rng, np.array([2.0, -1.0]), cov, size=40_000)
        fit = fit_gaussian(samples)
        assert np.allclose(fit.mean, [2.0, -1.0], atol=0.05)
        assert np.allclose(fit.cov, cov, atol=0.05)
        assert np.allclose(fit.cov, fit.cov.T)


@pytest.fixture(scope="module")
def system():
    return FlowSystem(
        [
            GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)),
            GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2)),
        ],
        {"right": [0], "left": [1], "all": [0, 1]},
    )


class TestQualityReport:

    def test_direct_target_draws_align(self, system):
        # samples straight from the target component: high alignment, near-zero inflation
        rng = Rng(43)
        finals = gaussian_sample(rng, np.array([3.0, 0.0]), np.eye(2), size=500)
        traces = [make_trace([1.0, 0.5, 0.1]) for _ in range(3)]

        class FakeResult:
            pass

        result = FakeResult()
        result.traces = traces
        result.finals = finals
        result.e_norm = np.stack([t.e_norm for t in traces])
        result.n_divergent = 0
        report = quality_report(result, system, "right")
        assert report.alignment >= 0.95
        assert abs(report.oversaturation) <= 0.15
        assert report.n_divergent == 0

    def test_unconditional_alignment_near_component_weight(self, system):
        rng = Rng(44)
        n = 4000
        finals = system.sample_data(rng, n)

        class FakeResult:
            pass

        result = FakeResult()
        result.traces = [make_trace([1.0, 0.5])]
        result.finals = finals
        result.e_norm = np.stack([t.e_norm for t in result.traces])
        result.n_divergent = 0
        report = quality_report(result, system, "right")
        se = 0.5 / np.sqrt(n)
        assert abs(report.alignment - 0.5) <= 3.0 * se

    def test_zero_gap_run_reports_absent_decay(self):
        system = SystemSpec(
            dimension=2,
            components=(
                ComponentSpec(0.5, (3.0, 0.0), "diag", (1.0, 1.0)),
                ComponentSpec(0.5, (-3.0, 0.0), "diag", (1.0, 1.0)),
            ),
            conditions={"all": (0, 1)},
            target="all",
        )
        cfg = ExperimentConfig(
            system=system,
            controller=ControllerSpec("cfg", {"w": 3.0}),
            sampler=SamplerSpec("euler", 16, 10, 5, False, 1e-4),
        )
        result = run_batch(cfg)
        sys_obj = FlowSystem(
            [
                GaussComponent(0.5, np.array([3.0, 0.0]), np.eye(2)),
                GaussComponent(0.5, np.array([-3.0, 0.0]), np.eye(2)),
            ],
            {"all": [0, 1]},
        )
        report = quality_report(result, sys_obj, "all")
        assert report.e_decay_ratio is None
        assert report.to_dict()["e_decay_ratio"] is None

    def test_too_few_samples_rejected(self, system):
        class FakeResult:
            pass

        result = FakeResult()
        result.traces = []
        result.finals = np.zeros((2, 2))
        result.n_divergent = 8
        with pytest.raises(ValueError):
            quality_report(result, system, "right")

    def test_no_rows_every_trajectory_diverged(self, system):
        class FakeResult:
            pass

        result = FakeResult()
        result.finals = np.zeros((0, 2))
        result.n_divergent = 10
        with pytest.raises(ValueError, match="^every trajectory diverged$"):
            quality_report(result, system, "right")

    def test_deterministic(self, system):
        rng = Rng(45)
        finals = gaussian_sample(rng, np.array([3.0, 0.0]), np.eye(2), size=100)

        class FakeResult:
            pass

        result = FakeResult()
        result.traces = [make_trace([2.0, 1.0, 0.5])]
        result.finals = finals
        result.e_norm = np.stack([t.e_norm for t in result.traces])
        result.n_divergent = 1
        a = quality_report(result, system, "right")
        b = quality_report(result, system, "right")
        assert a == b


class TestChiMean:
    def test_dimension_two(self):
        assert chi_mean(2) == pytest.approx(np.sqrt(np.pi / 2.0), abs=1e-12)

    def test_large_dimension_tends_to_sqrt_d(self):
        assert chi_mean(400) == pytest.approx(np.sqrt(400), rel=2e-3)


class TestPhasePlane:
    def test_constant_gap_gives_zero_derivative(self):
        points = phase_plane(make_trace([2.0] * 6))
        assert np.allclose(points[:, 1], 0.0)

    def test_geometric_decay_lies_on_slope_line(self):
        r, dtau = 0.8, 0.05
        e = r ** np.arange(10)
        points = phase_plane(make_trace(e, dtau=dtau))
        slope = (r - 1.0) / dtau
        assert np.abs(points[:, 1] - slope * points[:, 0]).max() <= 1e-10

    def test_needs_two_steps(self):
        with pytest.raises(ValueError):
            phase_plane(make_trace([1.0]))

    @staticmethod
    def batch(e_norm, dtau=0.1):
        e = np.asarray(e_norm, dtype=float)
        return RunResult(
            run_ids=np.arange(len(e)), tau=0.001 + dtau * np.arange(e.shape[1]), e_norm=e, vhat_norm=np.ones_like(e),
            finals=np.zeros((len(e), 2)), s_norm=None, x_path=None, s_path=None, divergences={},
            system=None, n_trajectories=len(e),
        )

    def test_batch_needs_two_steps(self):
        with pytest.raises(ValueError):
            phase_plane(self.batch([[1.0], [2.0]]))

    def test_empty_batch_has_no_points(self):
        points = phase_plane(self.batch(np.zeros((0, 6))))
        assert points.shape == (0, 2)

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_batch_stacks_its_traces_bit_for_bit(self, scheme):
        system = SystemSpec(
            dimension=2,
            components=(
                ComponentSpec(0.5, (3.0, 0.0), "diag", (1.0, 1.0)),
                ComponentSpec(0.5, (-3.0, 0.0), "diag", (1.0, 1.0)),
            ),
            conditions={"right": (0,)},
            target="right",
        )
        controller = ControllerSpec("smc", {"w": 5.0, "lambda": 6.0, "k": 0.1})
        result = run_batch(ExperimentConfig(system, controller, SamplerSpec(scheme, 16, 7, 3, False, 1e-4)))
        want = np.vstack([phase_plane(t) for t in result.traces])
        got = phase_plane(result)
        assert got.shape == want.shape == (7 * 15, 2) and got.tobytes() == want.tobytes()

    def test_line_residual_zero_on_line(self):
        pts = np.array([[1.0, -6.0], [0.5, -3.0]])
        assert line_residual(pts, -6.0) == 0.0


class TestMeanReachStep:
    def test_reads_the_rows_the_decay_ratio_reads(self):
        # row 0 starts at or below the 1e-12 floor, so like the decay ratio the reach step leaves it out
        e = [[1e-13, 0.0, 0.0, 0.0], [1.0, 0.5, 0.04, 0.01], [2.0, 1.0, 0.5, 0.05]]
        assert mean_reach_step(TestPhasePlane.batch(e)) == 2.5

    def test_no_reached_row_gives_none(self):
        assert mean_reach_step(TestPhasePlane.batch([[1.0, 0.9], [0.0, 0.0]])) is None


class TestLyapunovAudit:
    def test_monotone_series_clean(self):
        count, first = audit_surface_series(np.array([5.0, 4.0, 3.0, 2.0, 1.0]), band=0.1)
        assert count == 0 and first is None

    def test_increase_outside_band_counted(self):
        count, first = audit_surface_series(np.array([3.0, 4.0, 2.0, 1.0]), band=0.5)
        assert count == 1 and first == 0

    def test_infinite_band_vacuous(self):
        count, _ = audit_surface_series(np.array([1.0, 5.0, 2.0, 9.0]), band=np.inf)
        assert count == 0

    def test_series_helper_matches(self):
        s = np.array([3.0, 2.5, 2.6, 1.0])
        count, first = audit_surface_series(s, band=0.5)
        assert count == 1 and first == 1
