"""Shared fixtures: the reference two-component system, probe, layout and sampling helpers, and the lockstep oracle."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cfgctrl.config import load_config, build_system
from cfgctrl.flow_systems import marginal_velocity
from cfgctrl.guidance import StepContext, apply_controller
from cfgctrl.numerics import Rng

# every property draws the same examples on every run, and no saved failure is replayed ahead of them
settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
settings.load_profile("derandomized")

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


ENVELOPE = 1e6  # a row whose state or Heun predictor has a norm not within this is flagged


def reference_row(system, law, sampler, cond, x0):
    """The trajectory from the start point ``x0`` stepped alone, through public names only: the lockstep pass's oracle.

    The field is evaluated on the (1, d) row. A Heun corrector runs at
    tau + dtau with the step's own index, from the state the predictor stage
    returned, and does not advance it. Returns the step at which the row left
    the envelope, else its columns: ``e_norm``, ``vhat_norm`` and ``finals``,
    ``s_norm`` for a law with a state, and with ``record_x`` its paths.
    """
    def evaluator(points, t):
        return marginal_velocity(system, points, t, cond), marginal_velocity(system, points, t, None)

    def guided(points, i, t, state):
        v_c, v_u = evaluator(points, t)
        ctx = StepContext(i, sampler.steps, t, sampler.dtau, law.w)
        return (v_c - v_u, *apply_controller(law, v_c, v_u, points, ctx, evaluator, state))

    def norm(a):  # over the last axis of the row: a 1-D norm goes through dot, which can round differently
        return np.linalg.norm(a, axis=-1)[0]

    x, dtau, state = np.array(x0, dtype=float).reshape(1, -1), sampler.dtau, law.initial_state()
    steps = []
    with np.errstate(all="ignore"):
        for i, t in enumerate(sampler.tau_grid().tolist()):
            e, v, state = guided(x, i, t, state)
            step = {"e_norm": norm(e), "x_path": x[0]}
            if state is not None:
                step |= {"s_norm": norm(state.s), "s_path": state.s[0]}
            if sampler.scheme == "heun":
                x_pred = x + dtau * v
                if not norm(x_pred) <= ENVELOPE:
                    return i
                v = 0.5 * (v + guided(x_pred, i, t + dtau, state)[1])
            steps.append(step | {"vhat_norm": norm(v)})
            x = x + dtau * v
            if not norm(x) <= ENVELOPE:
                return i
    names = [name for name in steps[0] if sampler.record_x or not name.endswith("_path")]
    return {"finals": x[0]} | {name: np.array([step[name] for step in steps]) for name in names}


def assert_rows_are_their_reference_loops(result, system, law, sampler, cond, x0, rtol=0.0):
    """Each row of ``result``, a pass of ``law`` from the start points ``x0``, is its :func:`reference_row`.

    The divergences, the kept ids and every column are compared, bit for bit
    by default. With ``rtol``, a row's column may differ from its loop's by
    that much of the loop's largest entry in it; the divergence steps still match.
    """
    want = [reference_row(system, law, sampler, cond, x) for x in x0]
    kept = [i for i, row in enumerate(want) if isinstance(row, dict)]
    assert result.divergences == {i: step for i, step in enumerate(want) if i not in kept}
    assert result.run_ids.tolist() == kept and result.n_trajectories == len(x0)
    assert result.tau.tobytes() == sampler.tau_grid().tobytes()
    for row, i in enumerate(kept):
        for name in ("e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
            column = getattr(result, name)
            assert (column is None) == (name not in want[i]), name
            if column is None:
                continue
            got, expected = column[row], want[i][name]
            assert got.shape == expected.shape, (i, name)
            if rtol:
                assert np.abs(got - expected).max() <= rtol * np.abs(expected).max(), (i, name)
            else:
                assert got.tobytes() == expected.tobytes(), (i, name)
