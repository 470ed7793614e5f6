"""Analytic velocity fields for Gaussian-mixture rectified flows.

A :class:`FlowSystem` is a Gaussian mixture over R^d plus named conditions,
each selecting a subset of mixture components (the empty condition means
"all components"). Sampling paths interpolate linearly between a standard
normal draw at time 0 and a mixture draw at time 1:

    x_tau = tau * x1 + (1 - tau) * x0,    x0 ~ N(0, I),  x1 ~ mixture.

Under this path the probability-flow velocity E[x1 - x0 | x_tau = x] is
available in closed form. For component k the path marginal at time tau is
N(tau * mu_k, tau^2 * Sigma_k + (1 - tau)^2 * I); conditioning a jointly
Gaussian pair gives an affine per-component velocity, and components are
combined with their posterior responsibilities at (x, tau).

The kernel is coordinate-major: it evaluates a (..., d) probe on its (d, n)
transpose, with (K, n) responsibilities, so each per-coordinate step is one
numpy call over n contiguous values. A component whose eigenvectors are the
identity skips both eigenbasis rotations. Constants are computed once: each
condition's indices and log weights per system, the constants of time tau per
call for all components. The kernel's bits equal those of the row-major
per-component formula that the tests keep as the oracle.

The same conditional expectation can be estimated model-free by kernel
regression over sampled pairs; :func:`mc_velocity_oracle` implements that
independent estimator and is used by the tests to cross-check the closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .numerics import Rng, row_sum

_LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True, eq=False)
class GaussComponent:
    """One mixture component: weight in (0, 1], mean and SPD covariance."""

    weight: float
    mean: np.ndarray
    cov: np.ndarray


class FlowSystem:
    """Gaussian mixture with named component-subset conditions.

    Immutable after construction, its arrays read-only; all evaluation
    methods are pure, so one instance serves every block of a lockstep batch.
    """

    def __init__(self, components: list[GaussComponent], conditions: dict[str, list[int]] | None = None):
        # each refusal names its field as a config's system block does: "<field>: <rule>"
        if not components:
            raise ValueError("components: must be a nonempty list")
        dim = np.asarray(components[0].mean, dtype=float).shape[0]
        weights, means, covs, chols = [], [], [], []
        for i, comp in enumerate(components):
            path = f"components[{i}]"
            w = float(comp.weight)
            mean = np.asarray(comp.mean, dtype=float)
            cov = np.asarray(comp.cov, dtype=float)
            if not 0.0 < w <= 1.0:
                raise ValueError(f"{path}.weight: must lie in (0, 1]")
            if mean.ndim != 1 or mean.shape[0] != dim:
                raise ValueError(f"{path}.mean: shape {mean.shape} != ({dim},)")
            if cov.shape != (dim, dim):
                raise ValueError(f"{path}.cov: shape {cov.shape} != ({dim}, {dim})")
            try:
                chols.append(np.linalg.cholesky(cov))
            except np.linalg.LinAlgError:
                raise np.linalg.LinAlgError(f"{path}.cov: must be positive definite") from None
            weights.append(w)
            means.append(mean)
            covs.append(cov)
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"components: weights sum to {total!r}, expected 1")

        self.dim = int(dim)
        self._weights = np.asarray(weights)
        self._means = np.stack(means)
        self._covs = np.stack(covs)
        self._chols = np.stack(chols)
        eigvals, eigvecs = [], []
        for c in covs:
            lam, q = np.linalg.eigh(c)
            eigvals.append(lam)
            eigvecs.append(q)
        self._eigvals = np.stack(eigvals)  # (K, d)
        self._eigvecs = np.stack(eigvecs)  # (K, d, d), columns are eigenvectors
        # components whose eigenbasis is the coordinate basis: the field kernel skips their rotations
        self._unrotated = tuple(bool(np.array_equal(q, np.eye(self.dim))) for q in eigvecs)

        named: dict[str, tuple[int, ...]] = {}
        for name, subset in (conditions or {}).items():
            path = f"conditions.{name}"
            if not isinstance(name, str):  # None names the whole mixture
                raise ValueError(f"{path}: a condition's name must be a string")
            idx = tuple(int(i) for i in subset)
            if not idx:
                raise ValueError(f"{path}: must be a nonempty list of component indices")
            for i in idx:
                if not 0 <= i < len(components):
                    raise ValueError(f"{path}: invalid component index {i!r}")
            if len(set(idx)) != len(idx):
                raise ValueError(f"{path}: repeats a component index")
            named[name] = idx
        self.conditions = MappingProxyType(named)  # the subset tables below are built from it once
        # per subset (None: every component), its component indices and its log weights log(w_j / sum w)
        self._subsets: dict[str | None, tuple[np.ndarray, np.ndarray]] = {}
        for cond, subset in [(None, range(len(components))), *self.conditions.items()]:
            idx = np.asarray(subset, dtype=int)
            w = self._weights[idx]
            self._subsets[cond] = (idx, np.log(w / w.sum()))
        # every evaluation shares these arrays
        for a in (self._weights, self._means, self._covs, self._chols, self._eigvals, self._eigvecs,
                  *(a for table in self._subsets.values() for a in table)):
            a.flags.writeable = False

    @property
    def n_components(self) -> int:
        return len(self._weights)

    def component(self, i: int) -> GaussComponent:
        return GaussComponent(float(self._weights[i]), self._means[i].copy(), self._covs[i].copy())

    def component_indices(self, cond: str | None) -> np.ndarray:
        """Component subset for a condition id, read-only; None selects everything."""
        return self._subset(cond)[0]

    def _subset(self, cond: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The condition's component indices and in-subset log weights."""
        if cond not in self._subsets:
            raise ValueError(f"unknown condition {cond!r}")
        return self._subsets[cond]

    def mixture_moments(self, cond: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the (conditional) mixture at data time."""
        idx = self.component_indices(cond)
        w = self._weights[idx]
        w = w / w.sum()
        means = self._means[idx]
        mean = w @ means
        cov = np.zeros((self.dim, self.dim))
        for wi, mu, sig in zip(w, means, self._covs[idx]):
            dm = mu - mean
            cov += wi * (sig + np.outer(dm, dm))
        return mean, cov

    def sample_data(self, rng: Rng, n: int, cond: str | None = None) -> np.ndarray:
        """Draw n points from the (conditional) mixture at data time."""
        idx = self.component_indices(cond)
        w = self._weights[idx]
        probs = w / w.sum()
        u = rng.uniform(n)
        choice = np.searchsorted(np.cumsum(probs), u, side="right")
        choice = np.minimum(choice, len(idx) - 1)
        z = rng.standard_normal((n, self.dim))
        out = np.empty((n, self.dim))
        for j, k in enumerate(idx):
            mask = choice == j
            if mask.any():
                out[mask] = self._means[k] + z[mask] @ self._chols[k].T
        return out


def _check_probe(sys: FlowSystem, x: np.ndarray, tau: float) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != sys.dim:
        raise ValueError(f"probe dimension {x.shape[-1]} != system dimension {sys.dim}")
    if not np.isfinite(x).all():
        raise ValueError("probe point has non-finite entries")
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"time {tau!r} outside [0, 1); the path marginal degenerates at 1")
    return x


def _component_pass(sys: FlowSystem, x: np.ndarray, tau: float, log_norm: float, ks, velocity: bool):
    """One pass over components ``ks`` at the (..., d) probe ``x`` and time tau, on its (d, n) columns.

    Returns, per component, the (n,) log path density less the mixture
    weight (``log_norm`` is its Gaussian normalizing term), and the
    component's (d, n) affine velocity when ``velocity`` is set.
    """
    xt = np.ascontiguousarray(x.reshape(-1, x.shape[-1]).T)  # no copy for a Fortran-order (n, d) batch
    # the constants of every component at tau, as (K, d) arrays, each entry computed as the per-component formula would
    spectra = tau * tau * sys._eigvals + (1.0 - tau) ** 2  # path covariance eigenvalues
    half_logdets = 0.5 * np.log(spectra).sum(axis=1)  # each row summed as one contiguous (d,) array
    shifts = tau * sys._means
    # E[x1 | x] - E[x0 | x] from joint-Gaussian conditioning, in eigenbasis.
    gains = (tau * sys._eigvals - (1.0 - tau)) / spectra
    sq = np.empty(xt.shape)  # every component's squares: at batch size a fresh array costs more than a pass
    logs, vels = {}, {}
    for k in ks:
        q = sys._eigvecs[k]
        buf = xt - shifts[k][:, None]
        # a product with the identity could change only the sign of a zero, which _mix's closing + 0.0 drops
        zt = buf if sys._unrotated[k] else q.T @ buf
        np.multiply(zt, zt, out=sq)
        sq /= spectra[k][:, None]
        logs[k] = log = row_sum(sq.T)  # a fresh (n,) array
        log *= -0.5
        log -= half_logdets[k]
        log -= log_norm
        if velocity:
            zt *= gains[k][:, None]
            vels[k] = zt if sys._unrotated[k] else np.matmul(q, zt, out=buf)
            vels[k] += sys._means[k][:, None]
    return logs, vels


def _posteriors(logs: dict, idx: np.ndarray, log_w: np.ndarray) -> np.ndarray:
    """(K, n) responsibilities within the subset ``idx`` of log weights ``log_w``, from the logs of one pass."""
    resp = np.empty((len(idx),) + logs[idx[0]].shape)
    for j, k in enumerate(idx):
        np.add(logs[k], log_w[j], out=resp[j])
    return _normalize(resp)


def _normalize(logs: np.ndarray) -> np.ndarray:
    """(K, n) unnormalized log responsibilities to probabilities whose columns sum to 1, in place."""
    logs -= np.maximum.reduce(logs)  # row after row, as a loop of np.maximum would
    p = np.exp(logs, out=logs)
    p /= row_sum(p.T)
    return p


def _mix(resp: np.ndarray, vels: dict, idx: np.ndarray) -> np.ndarray:
    """Responsibility-weighted sum of the (d, n) velocities of the components ``idx``, in index order.

    Equal to the sum from +0.0 bit for bit: ((0 + a) + b) and ((a + b) + 0) differ for no a and b.
    """
    out = resp[0] * vels[idx[0]]
    term = np.empty(out.shape) if len(idx) > 1 else None
    for j in range(1, len(idx)):
        out += np.multiply(resp[j], vels[idx[j]], out=term)
    out += 0.0  # turns -0.0 into 0.0, as the sum's start would
    return out


def responsibilities(sys: FlowSystem, x: np.ndarray, tau: float, cond: str | None = None) -> np.ndarray:
    """Posterior component responsibilities at (x, tau); rows sum to 1."""
    x = _check_probe(sys, x, tau)
    idx, log_w = sys._subset(cond)
    logs, _ = _component_pass(sys, x, tau, 0.5 * sys.dim * _LOG_2PI, idx, velocity=False)
    return np.ascontiguousarray(_posteriors(logs, idx, log_w).T).reshape(x.shape[:-1] + (len(idx),))


def data_responsibilities(sys: FlowSystem, x: np.ndarray, cond: str | None = None) -> np.ndarray:
    """Responsibilities of the mixture itself (data time, tau = 1)."""
    x = np.asarray(x, dtype=float)
    idx, log_w = sys._subset(cond)
    # At tau = 1 the path spectrum is the covariance spectrum and the shift is the mean, exactly.
    logs, _ = _component_pass(sys, x, 1.0, 0.0, idx, velocity=False)
    return np.ascontiguousarray(_posteriors(logs, idx, log_w).T).reshape(x.shape[:-1] + (len(idx),))


def marginal_velocity(sys: FlowSystem, x: np.ndarray, tau: float, cond: str | None = None) -> np.ndarray:
    """Exact probability-flow velocity E[x1 - x0 | x_tau = x] of the mixture.

    ``x`` may carry leading batch axes; the result matches its shape.
    """
    x = _check_probe(sys, x, tau)
    idx, log_w = sys._subset(cond)
    logs, vels = _component_pass(sys, x, tau, 0.5 * sys.dim * _LOG_2PI, idx, velocity=True)
    return np.ascontiguousarray(_mix(_posteriors(logs, idx, log_w), vels, idx).T).reshape(x.shape)


def velocity_pair(sys: FlowSystem, x: np.ndarray, tau: float, cond: str | None) -> tuple[np.ndarray, np.ndarray]:
    """``(marginal_velocity(.., cond), marginal_velocity(.., None))`` from one pass over the components.

    The conditional posterior is the unconditional one restricted to the
    condition's components and renormalized, so both share every
    per-component quantity; the results are bit-identical to two calls.
    An (n, d) pair comes back in Fortran order, the layout the lockstep sampler keeps.
    """
    x = _check_probe(sys, x, tau)
    idx_c, log_w_c = sys._subset(cond)
    idx_u, log_w_u = sys._subset(None)
    logs, vels = _component_pass(sys, x, tau, 0.5 * sys.dim * _LOG_2PI, idx_u, velocity=True)
    v_u = _mix(_posteriors(logs, idx_u, log_w_u), vels, idx_u)
    if len(idx_c) == 1 and np.isfinite(logs[idx_c[0]]).all():
        # a lone component's responsibility is exp(l - l) / 1.0 = 1.0 on every row, and 1.0 * v + 0.0 is v + 0.0
        v_c = vels[idx_c[0]]  # v_u is done with it
        v_c += 0.0
    else:  # a row whose log is not finite gets the NaN responsibility of _normalize
        v_c = _mix(_posteriors(logs, idx_c, log_w_c), vels, idx_c)
    return v_c.T.reshape(x.shape), v_u.T.reshape(x.shape)


def default_bandwidth(tau: float) -> float:
    """Kernel bandwidth that tracks the path scale, bounded away from 0 at both ends."""
    return 0.1 * float(np.sqrt(tau * tau + (1.0 - tau) ** 2))


def mc_velocity_oracle(
    sys: FlowSystem,
    x: np.ndarray,
    tau: float,
    cond: str | None,
    n_pairs: int,
    bandwidth: float,
    rng: Rng,
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel Monte-Carlo estimate of the velocity field, with standard errors.

    Samples (x0, x1) pairs, forms x_tau, and weights each pair by a Gaussian
    kernel centered at the probe point. Returns the weighted mean of
    (x1 - x0) and its per-coordinate standard error (based on the effective
    sample size of the weights). Deliberately independent of
    :func:`marginal_velocity` so the two can check each other.
    """
    x = _check_probe(sys, x, tau)
    if x.ndim != 1:
        raise ValueError("oracle probes one point at a time")
    if n_pairs < 10_000:
        raise ValueError(f"n_pairs = {n_pairs} too small; need at least 10000")
    if bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")

    x1 = sys.sample_data(rng, n_pairs, cond)
    x0 = rng.standard_normal((n_pairs, sys.dim))
    x_tau = tau * x1 + (1.0 - tau) * x0
    y = x1 - x0

    log_w = -0.5 * ((x_tau - x) ** 2).sum(axis=1) / bandwidth**2
    log_w -= log_w.max()
    w = np.exp(log_w)
    w_sum = w.sum()
    ess = w_sum * w_sum / (w * w).sum()
    if ess < 100.0:
        raise ValueError(
            f"effective sample size {ess:.1f} < 100; increase bandwidth or n_pairs"
        )
    est = (w[:, None] * y).sum(axis=0) / w_sum
    var = (w[:, None] * (y - est) ** 2).sum(axis=0) / w_sum
    stderr = np.sqrt(var / ess)
    return est, stderr
