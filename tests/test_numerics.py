import numpy as np
import pytest

from cfgctrl.numerics import Rng, row_norm, row_sum, spectral_norm, stream_normals
from cfgctrl.sampler import DIVERGENCE_NORM

from conftest import gaussian_sample, layouts


class TestGaussianSample:
    def test_non_spd_rejected(self):
        with pytest.raises(np.linalg.LinAlgError):
            gaussian_sample(Rng(0), np.zeros(2), np.zeros((2, 2)))

    def test_sample_mean_within_4_sigma(self):
        n = 100_000
        rng = Rng(6)
        draws = gaussian_sample(rng, np.array([5.0, 5.0]), np.eye(2), size=n)
        err = np.abs(draws.mean(axis=0) - 5.0)
        assert (err <= 4.0 / np.sqrt(n)).all()

    def test_fixed_seed_bit_identical(self):
        a = gaussian_sample(Rng(7), np.zeros(3), np.eye(3), size=10)
        b = gaussian_sample(Rng(7), np.zeros(3), np.eye(3), size=10)
        assert np.array_equal(a, b)


class TestRng:
    def test_same_seed_same_draws(self):
        a = Rng(123).standard_normal(10_000)
        b = Rng(123).standard_normal(10_000)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(123, 0).standard_normal(100)
        b = Rng(123, 1).standard_normal(100)
        assert not np.array_equal(a, b)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def mixed_magnitudes(rng: Rng, shape) -> np.ndarray:
    """Normals scaled by 10^-12 .. 10^12 entry by entry, with signed zeros sprinkled in."""
    a = rng.standard_normal(shape) * 10.0 ** np.floor(24.0 * rng.uniform(shape) - 12.0)
    a[rng.uniform(shape) < 0.05] = 0.0
    a[rng.uniform(shape) < 0.05] = -0.0
    return a


class TestStreamNormals:
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 3])
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_rows_are_stream_draws(self, seed, dim):
        stacked = np.stack([Rng(seed, stream=i).standard_normal(dim) for i in range(40)])
        assert same_bits(stream_normals(seed, 40, dim), stacked)

    def test_no_rows(self):
        assert stream_normals(3, 0, 2).shape == (0, 2)


class TestRowReductions:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_row_sum_matches_numpy_bits(self, d):
        rng = Rng(100 + d)
        for shape in ((500, d), (d,), (3, 7, d), (1, d), (0, d)):
            a = mixed_magnitudes(rng, shape)
            expected = np.ascontiguousarray(a).sum(axis=-1)
            for layout, view in layouts(a).items():
                assert np.array_equal(view, a)
                assert same_bits(row_sum(view), expected), layout

    def test_row_sum_of_negative_zeros(self):
        a = np.full((3, 2), -0.0)
        assert same_bits(row_sum(a), a.sum(axis=-1))

    @pytest.mark.parametrize("d", range(1, 17))
    def test_row_norm_matches_numpy_bits(self, d):
        rng = Rng(200 + d)
        for shape in ((500, d), (d,), (3, 7, d)):
            a = mixed_magnitudes(rng, shape)
            expected = np.linalg.norm(np.ascontiguousarray(a), axis=-1)
            for layout, view in layouts(a).items():
                assert same_bits(row_norm(view), expected), layout

    def test_divergence_predicate_unchanged(self):
        # the sampler's envelope test, before and after the isfinite pass was dropped
        x = np.array([
            [np.inf, 0.0], [-np.inf, 1.0], [np.nan, 0.0], [0.0, np.nan], [1e200, 0.0], [-1e200, 1e200],
            [1e6, 0.0], [0.0, -1e6], [7e5, 7e5], [8e5, 8e5], [0.0, 0.0], [-0.0, 3.0],
        ])
        with np.errstate(over="ignore", invalid="ignore"):
            old = ~(np.isfinite(x).all(axis=1) & (np.linalg.norm(x, axis=1) <= DIVERGENCE_NORM))
            new = ~(row_norm(x) <= DIVERGENCE_NORM)
        assert np.array_equal(new, old)
        assert new.tolist() == [True] * 6 + [False, False, False, True, False, False]


class TestSpectralNorm:
    def test_against_svd(self):
        rng = Rng(8)
        for n in (1, 2, 3, 5, 8):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0
