"""Spectral norm, counter-based random streams and column-wise row reductions.

All numeric code in the package works on plain float64 numpy arrays:
vectors are 1-D, matrices 2-D. Experiment dimensions stay tiny (d <= 16),
so there is no sparse or blocked machinery here. For the same reason a sum
along the short last axis of a tall batch is cheaper as a few whole-column
additions than as numpy's per-row loop; :func:`row_sum` and :func:`row_norm`
work that way, in any layout, with the bits numpy gives the batch in C order.

A batch's start points are numpy's per-stream Philox normals, bit for bit,
drawn for all rows at once: :func:`stream_normals` computes the Philox words
in uint64 arithmetic and applies numpy's ziggurat fast path to them, with
tables read from the installed numpy at first use; numpy redraws the few rows
with a draw off that path.
"""

from __future__ import annotations

import functools

import numpy as np

Matrix = np.ndarray

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Rng:
    """Deterministic random stream backed by the Philox counter-based generator.

    Two instances built from the same (seed, stream) pair produce identical
    draw sequences on every platform. Trajectory i of a batch draws from
    stream i (see :func:`stream_normals`).
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray:
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, stream={self.stream})"


def stream_normals(seed: int, n: int, dim: int) -> np.ndarray:
    """(n, dim) standard normals; row i equals ``Rng(seed, stream=i).standard_normal(dim)``.

    All rows are drawn in one pass: their Philox words come from
    :func:`_philox_words`, and numpy's ziggurat fast path turns each word into
    a normal with the tables of :func:`_ziggurat_tables`. Numpy takes more
    words for a draw off that path, so a row holding one (about 3 % of rows
    at ``dim`` 2, 13 % at 9) is redrawn by numpy itself. One Philox generator
    is re-keyed per such row through its state instead of built anew, since
    each construction also draws OS entropy that the key then overrides. The
    state is a fresh one (zero counter, empty buffer) given as plain lists,
    which the setter reads faster than arrays.
    """
    r = _philox_words(seed, n, -(-dim // 4))[:, :dim]
    ki, wi = _ziggurat_tables()
    idx = r & 0xFF
    rabs = (r >> 9) & _MASK52
    out = rabs.astype(float) * wi[idx]
    np.negative(out, out=out, where=(r & 0x100).astype(bool))

    gen = Rng(seed)._gen
    key = [int(seed) & _MASK64, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for i in np.flatnonzero(~(rabs < ki[idx]).all(axis=1)).tolist():
        key[1] = i
        gen.bit_generator.state = fresh
        out[i] = gen.standard_normal(dim)
    return out


# Philox4x64-10 (Salmon et al., SC 2011, and numpy's philox.h): round multipliers and key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = 0xFFFFFFFF
_MASK52 = (1 << 52) - 1


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    b_lo = b & _MASK32
    t = a_lo * (b >> 32)
    t += (a_lo * b_lo) >> 32  # t and u stay below 2**64
    u = a_hi * b_lo
    u += t & _MASK32
    hi = a_hi * (b >> 32)
    hi += t >> 32
    hi += u >> 32
    return hi, np.uint64(a) * b


def _philox_words(seed: int, n: int, blocks: int) -> np.ndarray:
    """(n, 4 * blocks) uint64: row i holds the first words of ``Rng(seed, stream=i)``'s Philox generator.

    Row i is keyed [seed, i]. Numpy increments the counter before each
    block, so block b of a fresh generator is Philox4x64-10 of the counter
    [b + 1, 0, 0, 0].
    """
    seed = int(seed) & _MASK64
    c0 = np.broadcast_to(np.arange(1, blocks + 1, dtype=np.uint64), (n, blocks))
    c1 = c2 = c3 = np.zeros((n, blocks), dtype=np.uint64)
    streams = np.arange(n, dtype=np.uint64)[:, None]
    for rnd in range(_PHILOX_ROUNDS):
        k0 = np.uint64((seed + rnd * _PHILOX_W[0]) & _MASK64)
        k1 = streams + np.uint64(rnd * _PHILOX_W[1] & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(n, 4 * blocks)


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """numpy's normal ziggurat tables ``(ki, wi)`` (Marsaglia & Tsang, 2000), read from its own sampler.

    Numpy draws from a word r the strip ``idx = r & 0xff``, the sign bit 8 and
    ``rabs = (r >> 9) & (2**52 - 1)``; it returns ``rabs * wi[idx]``, negated
    if the sign is set, whenever ``rabs < ki[idx]`` (the fast path). An SFC64
    whose state is [r, 0, 0, 0] yields r as its first word, and its counter
    reads 1 after a fast-path draw. So ``wi[i]`` is the draw at ``rabs = 1``.
    Strip 1 has no fast path, but its wedge test accepts that draw: the
    uniform it reads from the second word, which is 1, is 0.0.
    ``ki[0]`` is found by bisection; ``ki[i]`` for i >= 2 is
    ``floor(2**52 * wi[i-1] / wi[i])``, kept only if ``rabs = ki[i] - 1`` takes
    the fast path. Each ``ki`` here is at most numpy's, so every draw it
    accepts numpy accepts too; a strip whose value fails (and strip 1, whose
    ``ki`` is 0) is never accepted, and its rows are redrawn by numpy.
    """
    bitgen = np.random.SFC64()
    gen = np.random.Generator(bitgen)

    def draw(idx: int, rabs: int) -> tuple[float, bool]:
        bitgen.state = {"bit_generator": "SFC64", "state": {"state": [rabs << 9 | idx, 0, 0, 0]},
                        "has_uint32": 0, "uinteger": 0}
        x = gen.standard_normal()
        return x, int(bitgen.state["state"]["state"][3]) == 1

    wi = np.array([draw(i, 1)[0] for i in range(256)])
    ki = np.zeros(256, dtype=np.uint64)
    lo, hi = 0, 1 << 52  # strip 0 takes the fast path for rabs in [0, ki[0])
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if draw(0, mid)[1] else (lo, mid)
    ki[0] = lo
    for i in range(2, 256):
        k = int(2.0**52 * wi[i - 1] / wi[i])
        if 0 < k <= 1 << 52 and draw(i, k - 1)[1]:
            ki[i] = k
    ki.setflags(write=False)
    wi.setflags(write=False)  # every caller shares the cached tables
    return ki, wi


_PAIRWISE_MIN = 8  # numpy sums rows of at least this many entries pairwise, not left to right


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` of ``a`` in C order, bit for bit, as whole-column additions when the last axis is short."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if not 0 < d < _PAIRWISE_MIN:
        return np.ascontiguousarray(a).sum(axis=-1)  # numpy sums long rows pairwise only where they are contiguous
    out = 0.0 + a[..., 0]  # numpy's sum starts from 0.0, which turns -0.0 into 0.0
    for j in range(1, d):
        out += a[..., j]
    return out


def row_norm(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(a, axis=-1)``, bit for bit, through :func:`row_sum`."""
    a = np.asarray(a, dtype=float)
    d = a.shape[-1]
    if a.ndim < 2 or not 0 < d < _PAIRWISE_MIN:
        return np.sqrt(row_sum(a * a))
    # row_sum's column loop, one square at a time; a square is never -0.0, so its 0.0 start changes no bit
    out = a[..., 0] * a[..., 0]
    sq = np.empty(out.shape) if d > 1 else None
    for j in range(1, d):
        out += np.multiply(a[..., j], a[..., j], out=sq)
    return np.sqrt(out, out=out)


_POWER_TOL = 1e-8  # relative change of the estimate at which power iteration stops
_POWER_MAX_ITER = 10_000


def spectral_norm(m: Matrix) -> float:
    """Largest singular value by power iteration on the normal equations."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"spectral_norm needs a matrix, got shape {m.shape}")
    n = m.shape[1]
    # Deterministic, mildly asymmetric start so no eigenvector is missed.
    v = 1.0 + 1e-3 * np.arange(n)
    v /= np.linalg.norm(v)
    prev = -1.0
    sigma = 0.0
    for _ in range(_POWER_MAX_ITER):
        u = m @ v
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return 0.0
        v = m.T @ u
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return sigma
        v /= nv
        if abs(sigma - prev) <= _POWER_TOL * max(1.0, sigma):
            break
        prev = sigma
    return sigma
