"""Spectral norm, counter-based random streams and column-wise row reductions.

All numeric code in the package works on plain float64 numpy arrays:
vectors are 1-D, matrices 2-D. Experiment dimensions stay tiny (d <= 16),
so there is no sparse or blocked machinery here. For the same reason a sum
along the short last axis of a tall batch is cheaper as a few whole-column
additions than as numpy's per-row loop; :func:`row_sum` and :func:`row_norm`
work that way, in any layout, with the bits numpy gives the batch in C order.
"""

from __future__ import annotations

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

    One Philox generator is re-keyed per stream through its state instead of
    built anew: each construction also draws OS entropy that the key then
    overrides. The state is a fresh one (zero counter, empty buffer) given as
    plain lists, which the setter reads faster than arrays.
    """
    gen = Rng(seed)._gen
    key = [int(seed) & _MASK64, 0]
    fresh = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((n, dim))
    for i in range(n):
        key[1] = i
        gen.bit_generator.state = fresh
        out[i] = gen.standard_normal(dim)
    return out


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
    return np.sqrt(row_sum(a * a))


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
