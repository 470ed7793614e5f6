"""Properties of the lockstep pass: a row's bits depend only on its own start point and law.

Random controller blocks with valid random parameters, Euler or Heun, with or
without ``record_x``, at dimensions 1 to 10 (8 and up reach numpy's pairwise
row sums). With a full covariance the bits can depend on the width of the
pass, which the ``full`` cases report as an expected failure.
"""

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfgctrl.sampler
from cfgctrl.config import (
    ComponentSpec,
    ControllerSpec,
    ExperimentConfig,
    SamplerSpec,
    SystemSpec,
    build_control_law,
    build_system,
)
from cfgctrl.guidance import CONTROLLERS
from cfgctrl.numerics import stream_normals
from cfgctrl.sampler import IntegratorSpec, _integrate_rows, run_batches

from test_sampler import assert_same_batch, separate_runs, zeroing_field

WIDTH_DEPENDENCE = (
    "with a full covariance a row's bits depend on how many rows share its lockstep pass: "
    "BLAS picks its matrix-product kernels by width (a FOUND line of CHANGES.md, repro at d = 16)"
)
COVARIANCES = ["diag", pytest.param("full", marks=pytest.mark.xfail(reason=WIDTH_DEPENDENCE, strict=False))]
PROPERTY = settings(max_examples=50, derandomize=True, deadline=None)


@dataclass(frozen=True)
class Case:
    dim: int
    trajectories: int
    scheme: str
    steps: int
    record_x: bool
    seed: int
    blocks: tuple[ControllerSpec, ...]
    subset: tuple[int, ...]  # ascending start-point indices


def controller_block(name: str):
    """A block of controller ``name`` whose parameters each satisfy their config key's bound."""
    keys = CONTROLLERS[name].keys
    values = {key: st.sampled_from(spec.choices) if spec.choices else st.floats(-2.0, 12.0).filter(spec.bound)
              for key, spec in keys.items()}
    required = {key: v for key, v in values.items() if keys[key].required}
    optional = {key: v for key, v in values.items() if not keys[key].required}
    return st.fixed_dictionaries(required, optional=optional).map(lambda params: ControllerSpec(name, params))


@st.composite
def cases(draw):
    n = draw(st.integers(1, 6))
    return Case(
        dim=draw(st.integers(1, 10)),
        trajectories=n,
        scheme=draw(st.sampled_from(["euler", "heun"])),
        steps=draw(st.integers(2, 10)),
        record_x=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64 - 1)),
        blocks=tuple(draw(st.lists(st.sampled_from(sorted(CONTROLLERS)).flatmap(controller_block), min_size=1, max_size=4))),
        subset=tuple(sorted(draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True)))),
    )


W5 = (ControllerSpec("cfg", {"w": 5.0}), ControllerSpec("weight_schedule", {"w_max": 5.0}),
      ControllerSpec("apg", {"w": 5.0}), ControllerSpec("cfg_zero_star", {"w": 5.0}), ControllerSpec("smc", {"w": 5.0}))
# three full-covariance components at d = 16, 16 Euler steps: one row alone and among seven get different bits
D16_REPRO = Case(dim=16, trajectories=7, scheme="euler", steps=16, record_x=False, seed=0, blocks=W5, subset=(6,))


def make_config(case: Case, covariance: str) -> ExperimentConfig:
    """Three components with means 3 sin(1.7 k + i); diagonal covariances in no sorted order, or full ones."""
    components = []
    for k in range(3):
        mean = tuple(3.0 * math.sin(1.7 * k + i) for i in range(case.dim))
        if covariance == "diag":
            components.append(ComponentSpec(1 / 3, mean, "diag", tuple(1.0 + 0.4 * ((i + k) % 3) for i in range(case.dim))))
        else:
            lower = tuple(tuple(2.0 + 0.1 * k if j == i else 0.2 * math.sin(k + i * j) for j in range(i + 1))
                          for i in range(case.dim))
            components.append(ComponentSpec(1 / 3, mean, "full_lower", lower))
    system = SystemSpec(case.dim, tuple(components), {"odd": (1,), "all": (0, 1, 2)}, "odd")
    sampler = SamplerSpec(case.scheme, case.steps, case.trajectories, case.seed, case.record_x, 1e-4)
    return ExperimentConfig(system, case.blocks[0], sampler)


def integrate(cfg: ExperimentConfig, blocks, x0: np.ndarray):
    """``_integrate_rows`` of freshly built laws from the start points ``x0``."""
    integ = IntegratorSpec(cfg.sampler.scheme, cfg.sampler.steps, cfg.sampler.tau_clamp)
    laws = [build_control_law(spec) for spec in blocks]
    return _integrate_rows(build_system(cfg.system), laws, integ, cfg.system.target, x0, cfg.sampler.record_x)


def assert_same_rows(got, want, got_ids, want_ids):
    """Row ``got_ids[i]`` of ``got`` equals row ``want_ids[i]`` of ``want`` in every column, and both lost the same rows."""
    got_map, want_map = dict(zip(got_ids, want_ids)), dict(zip(want_ids, got_ids))
    assert {got_map[i]: s for i, s in got.divergences.items() if i in got_map} == \
        {i: s for i, s in want.divergences.items() if i in want_map}
    got_rows = np.isin(got.run_ids, got_ids)
    want_rows = np.isin(want.run_ids, want_ids)
    assert [got_map[i] for i in got.run_ids[got_rows].tolist()] == want.run_ids[want_rows].tolist()
    for name in ("e_norm", "vhat_norm", "finals", "s_norm", "x_path", "s_path"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a[got_rows].tobytes() == b[want_rows].tobytes(), name


@pytest.mark.parametrize("covariance", COVARIANCES)
@PROPERTY
@example(case=D16_REPRO)
@given(case=cases())
def test_each_block_equals_its_own_run(covariance, case):
    cfg = make_config(case, covariance)
    results = run_batches(cfg, list(case.blocks))
    for got, want in zip(results, separate_runs([replace(cfg, controller=spec) for spec in case.blocks]), strict=True):
        assert_same_batch(got, want)


@pytest.mark.parametrize("covariance", COVARIANCES)
@PROPERTY
@example(case=D16_REPRO)
@given(case=cases())
def test_a_subset_of_start_points_gives_its_rows(covariance, case):
    cfg = make_config(case, covariance)
    x0 = stream_normals(case.seed, case.trajectories, case.dim)
    subset = list(case.subset)
    for got, want in zip(integrate(cfg, case.blocks, x0[subset]), integrate(cfg, case.blocks, x0), strict=True):
        assert isinstance(got, Exception) == isinstance(want, Exception)
        if not isinstance(got, Exception):
            assert_same_rows(got, want, list(range(len(subset))), subset)


@pytest.mark.parametrize("covariance", ["diag", "full"])
@PROPERTY
@given(case=cases(), zeroed=st.sampled_from([(0,), (1,), (0, 1)]))
def test_a_degenerate_row_changes_no_other_row(covariance, case, zeroed):
    # row 1 of every block gets a zero v_c, v_u or both from tau = 0.5 on; the pass keeps its width
    cfg = make_config(replace(case, trajectories=max(case.trajectories, 2)), covariance)
    clean = run_batches(cfg, list(case.blocks))
    with mock.patch.object(cfgctrl.sampler, "velocity_pair", zeroing_field(0.5, zeroed, cfg.sampler.trajectories)):
        degenerate = run_batches(cfg, list(case.blocks))
    others = [i for i in range(cfg.sampler.trajectories) if i != 1]
    for got, want in zip(degenerate, clean, strict=True):
        assert isinstance(got, Exception) == isinstance(want, Exception)
        if not isinstance(got, Exception):
            assert_same_rows(got, want, others, others)
