import functools

import numpy as np
import pytest

from cfgctrl.numerics import Rng, _philox_words, _ziggurat_tables, row_norm, row_sum, spectral_norm, stream_normals
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


STREAM_SEEDS = [0, 1, 7, -1, 2**63 + 5, 2**64 - 1, 2**64 + 3]
MASK64 = 2**64 - 1


@functools.lru_cache(maxsize=1)
def stream_rows(seed: int, dim: int) -> np.ndarray:
    """Rows 0..2999 drawn by one ``Rng`` per stream: the reference for ``stream_normals``."""
    return np.stack([Rng(seed, stream=i).standard_normal(dim) for i in range(3000)])


def fallback_rows(seed: int, n: int, dim: int) -> int:
    """Rows of ``stream_normals(seed, n, dim)`` with a word off the tables' fast path, redrawn by numpy."""
    ki, _ = _ziggurat_tables()
    r = _philox_words(seed, n, -(-dim // 4))[:, :dim]
    return int((((r >> 9) & (2**52 - 1)) >= ki[r & 0xFF]).any(axis=1).sum())


def sfc64_draw(idx: int, rabs: int, sign: int = 0) -> tuple[float, bool]:
    """numpy's standard normal from the first word ``rabs << 9 | sign << 8 | idx``, and whether it used that word alone."""
    bitgen = np.random.SFC64()
    bitgen.state = {"bit_generator": "SFC64", "state": {"state": [rabs << 9 | sign << 8 | idx, 0, 0, 0]},
                    "has_uint32": 0, "uinteger": 0}
    x = np.random.Generator(bitgen).standard_normal()
    return x, int(bitgen.state["state"]["state"][3]) == 1


class TestStreamNormals:
    @pytest.mark.parametrize("n", [0, 1, 37, 3000])  # n varies fastest, so each reference is drawn once
    @pytest.mark.parametrize("dim", range(1, 17))
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_rows_are_stream_draws(self, seed, dim, n):
        assert same_bits(stream_normals(seed, n, dim), stream_rows(seed, dim)[:n])
        if n == 3000:  # the vectorized rows and the redrawn ones both take part
            assert 0 < fallback_rows(seed, n, dim) < n

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_words_are_philox_words(self, seed, blocks):
        words = _philox_words(seed, 37, blocks)
        assert words.shape == (37, 4 * blocks) and words.dtype == np.uint64
        for i in range(37):
            key = np.array([seed & MASK64, i], dtype=np.uint64)  # a list key of 2**63 or more goes through float
            assert same_bits(words[i], np.random.Philox(key=key).random_raw(4 * blocks))


class TestZigguratTables:
    def test_wi_is_the_draw_at_rabs_one(self):
        _, wi = _ziggurat_tables()
        assert all(same_bits(sfc64_draw(i, 1)[0], wi[i]) for i in range(256))

    def test_ki_is_numpys_fast_path_bound_or_one_below(self):
        ki, _ = _ziggurat_tables()
        assert ki[1] == 0 and not sfc64_draw(1, 0)[1]  # numpy takes no fast path in strip 1
        for i in [0, *range(2, 256)]:
            k = int(ki[i])
            assert k > 0 and sfc64_draw(i, k - 1)[1], i
            assert not sfc64_draw(i, k + 1)[1], i
        assert not sfc64_draw(0, int(ki[0]))[1]  # strip 0's bound is bisected exactly

    @pytest.mark.parametrize("sign", [0, 1])
    def test_fast_path_draw_is_rabs_times_wi(self, sign):
        ki, wi = _ziggurat_tables()
        for i in [0, *range(2, 256)]:
            for rabs in (0, 1, int(ki[i]) // 3, int(ki[i]) - 1):
                x, fast = sfc64_draw(i, rabs, sign)
                assert fast and same_bits(x, -(rabs * wi[i]) if sign else rabs * wi[i]), (i, rabs)


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

    @pytest.mark.parametrize("d", range(1, 10))
    def test_row_norm_of_special_values_matches_numpy_bits(self, d):
        """Signed zeros, infinities, NaN, a square that overflows (1e200) and one that underflows (1e-200)."""
        special = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e200, -1e200, 1e-200, -1e-200, 1.5])
        rng = Rng(300 + d)
        pairs = np.array(np.meshgrid(special, special)).reshape(2, -1).T  # every pair, in the first two columns
        a = special[(rng.uniform((len(pairs), d)) * len(special)).astype(int)]
        a[:, :2] = pairs[:, :d]
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for shape in ((len(pairs), d), (4, len(pairs) // 4, d), (d,)):
                b = a[: int(np.prod(shape[:-1]))].reshape(shape)
                expected = np.linalg.norm(np.ascontiguousarray(b), axis=-1)
                for layout, view in layouts(b).items():
                    assert same_bits(row_norm(view), expected), (shape, layout)

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
