import numpy as np
import pytest

from cfgctrl.numerics import Rng, spectral_norm

from conftest import _check_symmetric, gaussian_sample


# dot, sign_elementwise and cholesky_solve have no caller in the package;
# they live here, beside their only tests.


def dot(a, b) -> float:
    """Inner product of two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot needs equal-length 1-D vectors, got shapes {a.shape} and {b.shape}")
    return float(np.dot(a, b))


def sign_elementwise(v) -> np.ndarray:
    """Elementwise sign with sign(0) = 0; NaN entries are refused."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        raise ValueError("sign_elementwise: NaN entry")
    return np.sign(v)


def cholesky_solve(s, b) -> np.ndarray:
    """Solve s @ x = b for symmetric positive definite s."""
    s = _check_symmetric(s, "cholesky_solve matrix")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1 or b.shape[0] != s.shape[0]:
        raise ValueError(f"right-hand side shape {b.shape} does not match matrix {s.shape}")
    lower = np.linalg.cholesky(s)
    y = np.linalg.solve(lower, b)
    return np.linalg.solve(lower.T, y)


class TestDot:
    def test_orthogonal(self):
        assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_arithmetic(self):
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_self_dot_nonnegative(self):
        rng = Rng(1)
        for _ in range(20):
            a = rng.standard_normal(5)
            assert dot(a, a) >= 0.0
            assert dot(a, a) == pytest.approx(np.linalg.norm(a) ** 2)

    def test_symmetry_and_bilinearity(self):
        rng = Rng(2)
        for _ in range(50):
            a, b, c = rng.standard_normal((3, 6))
            alpha = float(rng.standard_normal())
            assert dot(a, b) == pytest.approx(dot(b, a), abs=1e-12)
            assert dot(alpha * a + b, c) == pytest.approx(alpha * dot(a, c) + dot(b, c), rel=1e-10, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dot([1.0, 2.0], [1.0, 2.0, 3.0])


class TestSignElementwise:
    def test_by_definition(self):
        assert np.array_equal(sign_elementwise([2.5, -0.1, 0.0]), [1.0, -1.0, 0.0])

    def test_zero_vector(self):
        assert np.array_equal(sign_elementwise(np.zeros(4)), np.zeros(4))

    def test_scalar_negative(self):
        assert np.array_equal(sign_elementwise([-7.0]), [-1.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            sign_elementwise([1.0, np.nan])

    def test_range_and_oddness(self):
        rng = Rng(3)
        for _ in range(50):
            v = rng.standard_normal(8)
            s = sign_elementwise(v)
            assert set(np.unique(s)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(sign_elementwise(-v), -s)


def random_spd(rng: Rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestCholeskySolve:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(cholesky_solve(np.eye(3), b), b)

    def test_diagonal(self):
        assert np.allclose(cholesky_solve(np.array([[4.0]]), np.array([8.0])), [2.0])

    def test_random_spd_residual(self):
        rng = Rng(4)
        s = random_spd(rng, 3)
        b = rng.standard_normal(3)
        x = cholesky_solve(s, b)
        assert np.linalg.norm(s @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_round_trip_up_to_8x8(self):
        rng = Rng(5)
        for n in range(1, 9):
            for _ in range(5):
                s = random_spd(rng, n)
                b = rng.standard_normal(n)
                x = cholesky_solve(s, b)
                assert np.linalg.norm(s @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)

    def test_non_spd_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_solve(np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([1.0, 1.0]))

    def test_asymmetric_raises(self):
        with pytest.raises(ValueError):
            cholesky_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))


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

    def test_spawn_matches_direct_construction(self):
        assert np.array_equal(Rng(9).spawn(4).standard_normal(50), Rng(9, 4).standard_normal(50))


class TestSpectralNorm:
    def test_against_svd(self):
        rng = Rng(8)
        for n in (1, 2, 3, 5, 8):
            for _ in range(5):
                m = rng.standard_normal((n, n))
                assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0
