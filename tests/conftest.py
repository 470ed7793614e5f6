"""Shared fixtures: the reference two-component system, probe, layout and sampling helpers."""

from pathlib import Path

import numpy as np
import pytest

from cfgctrl.config import load_config, build_system
from cfgctrl.numerics import Rng

REPO_ROOT = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO_ROOT / "configs" / "reference.json"


@pytest.fixture(scope="session")
def reference_config():
    return load_config(str(REFERENCE_CONFIG))


@pytest.fixture(scope="session")
def reference_system(reference_config):
    return build_system(reference_config.system)


def draw_probe(rng: Rng, system, cond: str | None, max_radius: float = 2.0):
    """Random (x, tau) with bounded Mahalanobis radius from a component path mean.

    Keeps probes inside the conditional path mass so kernel estimators retain
    a usable effective sample size.
    """
    tau = float(0.05 + 0.90 * rng.uniform())
    idx = system.component_indices(cond)
    k = int(idx[int(rng.uniform() * len(idx)) % len(idx)])
    mu = system.component(k).mean
    scale = np.sqrt(tau**2 + (1.0 - tau) ** 2)
    u = rng.standard_normal(system.dim)
    u /= np.linalg.norm(u)
    r = max_radius * float(rng.uniform())
    return tau * mu + scale * r * u, tau


def layouts(a: np.ndarray) -> dict[str, np.ndarray]:
    """The values of ``a`` in C order, in Fortran order, as a block of rows of a taller Fortran array, and strided."""
    tall = np.asfortranarray(np.concatenate([a, a, a], axis=-2)) if a.ndim > 1 else a
    strided = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
    strided[..., 1::2] = a
    return {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "F rows": tall[..., a.shape[-2]:2 * a.shape[-2], :] if a.ndim > 1 else a,
        "strided": strided[..., 1::2],
    }


def _check_symmetric(m, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.abs(m).max()))
    if float(np.abs(m - m.T).max()) > 1e-10 * scale:
        raise ValueError(f"{name} is not symmetric")
    return m


def gaussian_sample(rng: Rng, mean, cov, size: int | None = None) -> np.ndarray:
    """Draw from N(mean, cov) as mean + L z with L the Cholesky factor.

    With ``size=None`` returns one draw of shape (d,); otherwise (size, d).
    Non positive definite covariances raise numpy.linalg.LinAlgError.
    """
    mean = np.asarray(mean, dtype=float)
    cov = _check_symmetric(cov, "covariance")
    if mean.ndim != 1 or mean.shape[0] != cov.shape[0]:
        raise ValueError(f"mean shape {mean.shape} does not match covariance {cov.shape}")
    lower = np.linalg.cholesky(cov)
    shape = mean.shape[0] if size is None else (int(size), mean.shape[0])
    z = rng.standard_normal(shape)
    return mean + z @ lower.T
