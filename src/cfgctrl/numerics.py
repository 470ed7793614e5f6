"""Spectral norm and counter-based random streams.

All numeric code in the package works on plain float64 numpy arrays:
vectors are 1-D, matrices 2-D. Experiment dimensions stay tiny (d <= 16),
so there is no sparse or blocked machinery here.
"""

from __future__ import annotations

import numpy as np

Matrix = np.ndarray

_MASK64 = 0xFFFFFFFFFFFFFFFF


class Rng:
    """Deterministic random stream backed by the Philox counter-based generator.

    Two instances built from the same (seed, stream) pair produce identical
    draw sequences on every platform. Streams are cheap to derive, so each
    trajectory of a batch gets its own via :meth:`spawn`.
    """

    algorithm = "philox4x64"

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def spawn(self, stream: int) -> "Rng":
        """Independent stream sharing this seed."""
        return Rng(self.seed, stream)

    def standard_normal(self, size=None) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform(self, size=None) -> np.ndarray:
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed}, stream={self.stream})"


def spectral_norm(m: Matrix, tol: float = 1e-8, max_iter: int = 10_000) -> float:
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
    for _ in range(max_iter):
        u = m @ v
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            return 0.0
        v = m.T @ u
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return sigma
        v /= nv
        if abs(sigma - prev) <= tol * max(1.0, sigma):
            break
        prev = sigma
    return sigma
