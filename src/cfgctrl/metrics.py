"""Trace and sample-quality analysis for guided runs.

Desk-scale proxies stand in for perceptual metrics: distribution match is
the closed-form 2-Wasserstein distance between the fitted sample Gaussian
and the target; "alignment" is the mean mixture responsibility of the target
components at the final samples; "oversaturation" is the mean Mahalanobis
distance to the target minus its expected value under the target itself, so
positive values mean samples pushed past the mode. The Mahalanobis proxy is
an analogy chosen for measurability, not a validated perceptual equivalence.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .flow_systems import FlowSystem, data_responsibilities
from .sampler import RunResult, Trace


@dataclass(frozen=True)
class GaussFit:
    """Sample mean and (symmetrized) covariance of a point cloud."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class QualityReport:
    """Quality proxies of one batch against its target condition."""

    w2: float
    alignment: float
    oversaturation: float
    e_decay_ratio: float | None
    n_divergent: int

    def to_dict(self) -> dict:
        return asdict(self)


def fit_gaussian(samples: np.ndarray) -> GaussFit:
    samples = np.asarray(samples, dtype=float)
    n, d = samples.shape
    if n < d + 1:
        raise ValueError(f"need at least {d + 1} samples to fit a {d}-dimensional Gaussian, got {n}")
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (n - 1)
    cov = 0.5 * (cov + cov.T)
    return GaussFit(mean, cov)


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; tiny negative eigenvalues are clamped to 0."""
    sym = 0.5 * (m + m.T)
    eigval, eigvec = np.linalg.eigh(sym)
    eigval = np.clip(eigval, 0.0, None)
    return (eigvec * np.sqrt(eigval)) @ eigvec.T


def w2_gaussian(mu1: np.ndarray, cov1: np.ndarray, mu2: np.ndarray, cov2: np.ndarray) -> float:
    """Closed-form 2-Wasserstein distance between two Gaussians.

    W2^2 = |mu1 - mu2|^2 + tr(cov1 + cov2 - 2 (cov2^1/2 cov1 cov2^1/2)^1/2).
    Both covariances must be SPD.
    """
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    cov1 = np.asarray(cov1, dtype=float)
    cov2 = np.asarray(cov2, dtype=float)
    np.linalg.cholesky(cov1)
    np.linalg.cholesky(cov2)
    root2 = _sqrtm_psd(cov2)
    cross = _sqrtm_psd(root2 @ cov1 @ root2)
    total = float(((mu1 - mu2) ** 2).sum() + np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross))
    return math.sqrt(max(total, 0.0))


def chi_mean(dim: int) -> float:
    """Expected Euclidean norm of a standard normal vector (chi distribution mean)."""
    return math.sqrt(2.0) * math.exp(math.lgamma((dim + 1) / 2.0) - math.lgamma(dim / 2.0))


def mahalanobis(samples: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Per-sample Mahalanobis distance to N(mean, cov).

    A finite row whose squares overflow is scaled by its largest entry first,
    so its distance is inf only if the distance itself is past the floats.
    """
    samples = np.asarray(samples, dtype=float)
    lower = np.linalg.cholesky(cov)
    z = np.linalg.solve(lower, (samples - mean).T).T
    with np.errstate(over="ignore"):
        distances = np.linalg.norm(z, axis=1)
        rescale = np.isinf(distances) & np.isfinite(z).all(axis=1)
        if rescale.any():
            scale = np.abs(z[rescale]).max(axis=1, keepdims=True)
            distances[rescale] = scale[:, 0] * np.linalg.norm(z[rescale] / scale, axis=1)
    return distances


_E_FLOOR = 1e-12  # an initial gap norm at or below this counts as unguided
_REACH_FRACTION = 0.05  # the share of its initial gap norm a row reaches in mean_reach_step


def quality_report(result: RunResult, system: FlowSystem, cond: str) -> QualityReport:
    """Quality proxies of a batch's final samples against the target condition.

    ValueError if too few samples survived, or if the target's covariance or
    a proxy is not finite, as when a term overflows; a far component's
    density may underflow to 0.
    """
    finals = result.finals
    if not len(finals):
        raise ValueError("every trajectory diverged")
    if finals.shape[0] < system.dim + 1:
        raise ValueError(
            f"need at least {system.dim + 1} non-divergent samples, got {finals.shape[0]}"
        )
    fit = fit_gaussian(finals)
    with np.errstate(all="ignore"):  # a value past the floats is refused below
        target_mean, target_cov = system.mixture_moments(cond)
        if not np.isfinite(target_cov).all():
            raise ValueError(f"the covariance of condition {cond!r} is not finite")

        w2 = w2_gaussian(fit.mean, fit.cov, target_mean, target_cov)

        resp = data_responsibilities(system, finals)
        idx = system.component_indices(cond)
        alignment = float(resp[:, idx].sum(axis=1).mean())

        distances = mahalanobis(finals, target_mean, target_cov)
        oversaturation = float(distances.mean() - chi_mean(system.dim))

        # final-over-initial gap-norm ratio, averaged over the guided rows
        e = result.e_norm
        guided = e[:, 0] > _E_FLOOR
        decay = float(np.mean(e[guided, -1] / e[guided, 0])) if guided.any() else None

    for name, value in (("w2", w2), ("alignment", alignment), ("oversaturation", oversaturation),
                        ("e_decay_ratio", decay)):
        if value is not None and not math.isfinite(value):
            raise ValueError(f"the report's {name} is not finite")
    return QualityReport(
        w2=w2,
        alignment=alignment,
        oversaturation=oversaturation,
        e_decay_ratio=decay,
        n_divergent=result.n_divergent,
    )


def mean_reach_step(result: RunResult) -> float | None:
    """Mean first step at which the gap norm fell to 5% of its initial value, over the guided rows."""
    e = result.e_norm
    hit = e <= _REACH_FRACTION * e[:, :1]  # a boolean table over every row, so no row of e is copied
    rows = (e[:, 0] > _E_FLOOR) & hit.any(axis=1)
    if not rows.any():
        return None
    return float(np.mean(np.argmax(hit[rows], axis=1)))


def phase_plane(run: Trace | RunResult) -> np.ndarray:
    """(|e|, d|e|/dtau) pairs from forward differences of the recorded gap norms.

    Returns a (steps - 1, 2) array per trajectory, the rows of a batch
    stacked in row order; forward differencing keeps geometric decays
    exactly on their slope line.
    """
    if len(run.tau) < 2:
        raise ValueError("phase plane needs at least 2 recorded steps")
    e = run.e_norm
    deriv = np.diff(e) / float(run.tau[1] - run.tau[0])
    return np.stack([e[..., :-1], deriv], axis=-1).reshape(-1, 2)


def line_residual(points: np.ndarray, slope: float) -> float:
    """Mean absolute residual of phase-plane points to the line deriv = slope * |e|."""
    points = np.asarray(points, dtype=float)
    return float(np.abs(points[:, 1] - slope * points[:, 0]).mean())


def audit_surface_series(s_norms: np.ndarray, band: float) -> tuple[int, int | None]:
    """Count energy increases that happen outside the tolerance band.

    A violation at step i means 0.5*|s|^2 grew from i to i+1 while |s_i| was
    still above the band. Returns (count, first violation step or None).
    """
    s_norms = np.asarray(s_norms, dtype=float)
    v = 0.5 * s_norms**2
    increases = (np.diff(v) > 0.0) & (s_norms[:-1] > band)
    count = int(increases.sum())
    first = int(np.nonzero(increases)[0][0]) if count else None
    return count, first
