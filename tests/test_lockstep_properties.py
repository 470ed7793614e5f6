"""Properties of the lockstep pass: a row's bits depend only on its own start point and law.

Random controller blocks with valid random parameters, Euler or Heun, with or
without ``record_x``, at dimensions 1 to 10 (8 and up reach numpy's pairwise
row sums). With a full covariance the bits can depend on the width of the
pass, which the ``full`` cases report as an expected failure. A sweep, one
law whose swept gain is a per-row column, is checked against the blocks of
its values in a pass of the same width, which is strict for both covariances.
"""

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cfgctrl.sampler
from cfgctrl.cli import _row
from cfgctrl.config import (
    SCHEMES,
    SWEEP_PARAMETERS,
    ComponentSpec,
    ConfigError,
    ControllerSpec,
    ExperimentConfig,
    SamplerSpec,
    SweepSpec,
    SystemSpec,
    build_control_law,
    build_system,
    with_controller_value,
)
from cfgctrl.guidance import CONTROLLERS
from cfgctrl.numerics import stream_normals
from cfgctrl.sampler import RunResult, _integrate_rows, run_batches, run_sweep

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


def controller_block(name: str, number=st.floats(-2.0, 12.0)):
    """A block of controller ``name`` whose parameters, drawn from ``number``, each satisfy their config key's bound."""
    keys = CONTROLLERS[name].keys
    values = {key: st.sampled_from(spec.choices) if spec.choices else number.filter(spec.bound)
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
    laws = [build_control_law(spec) for spec in blocks]
    return _integrate_rows(build_system(cfg.system), laws, cfg.sampler, cfg.system.target, x0)


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
        assert_same_rows(got, want, others, others)


# every controller and parameter a sweep takes; smc's with and without a boundary layer
SWEEPS = [("cfg", "w", None), ("apg", "w", None), ("cfg_zero_star", "w", None), ("rectified_cfgpp", "w", None),
          *(("smc", parameter, layer) for parameter in ("w", "lambda", "k") for layer in (0.0, 0.05))]
DIVERGENT_K = 1e9  # a switching gain under which every row leaves the envelope on its first step


@st.composite
def sweep_cases(draw, name: str, parameter: str, layer: float | None, scheme: str, record_x: bool):
    """A case of one random ``name`` block, and 1 to 4 values of ``parameter`` within its bound."""
    block = draw(controller_block(name))
    if layer is not None:
        block = ControllerSpec(name, {**block.params, "boundary_layer": layer})
    key = CONTROLLERS[name].keys[parameter]
    value = st.floats(-2.0, 12.0).filter(key.bound)
    if parameter == "k":
        value = value | st.just(DIVERGENT_K)
    n = draw(st.integers(1, 5))
    case = Case(dim=draw(st.integers(1, 10)), trajectories=n, scheme=scheme, steps=draw(st.integers(2, 8)),
                record_x=record_x, seed=draw(st.integers(0, 2**64 - 1)), blocks=(block,), subset=(0,))
    return case, SweepSpec(parameter, tuple(draw(st.lists(value, min_size=1, max_size=4))))


def value_blocks(cfg: ExperimentConfig) -> list[ControllerSpec]:
    return [with_controller_value(cfg, cfg.sweep.parameter, v).controller for v in cfg.sweep.values]


@pytest.mark.parametrize("record_x", [False, True])
@pytest.mark.parametrize("scheme", ["euler", "heun"])
@pytest.mark.parametrize("name, parameter, layer", SWEEPS)
@pytest.mark.parametrize("covariance", ["diag", "full"])
@settings(max_examples=2, derandomize=True, deadline=None)
@given(data=st.data())
def test_each_swept_value_equals_its_block(covariance, name, parameter, layer, scheme, record_x, data):
    case, sweep = data.draw(sweep_cases(name, parameter, layer, scheme, record_x))
    cfg = replace(make_config(case, covariance), controller=case.blocks[0], sweep=sweep)
    blocks = value_blocks(cfg)
    got = run_sweep(cfg)
    for result, want in zip(got, run_batches(cfg, blocks), strict=True):  # a pass of the same width
        assert_same_batch(result, want)
    if covariance == "diag":
        for result, want in zip(got, separate_runs([replace(cfg, controller=b) for b in blocks]), strict=True):
            assert_same_batch(result, want)


@pytest.mark.parametrize("covariance", ["diag", "full"])
@pytest.mark.parametrize("scheme", ["euler", "heun"])
def test_a_value_whose_rows_all_diverge_fails_only_its_row(covariance, scheme):
    case = Case(dim=3, trajectories=4, scheme=scheme, steps=6, record_x=True, seed=11,
                blocks=(ControllerSpec("smc", {"w": 5.0, "lambda": 6.0}),), subset=(0,))
    sweep = SweepSpec("k", (0.1, DIVERGENT_K, 0.5))
    cfg = replace(make_config(case, covariance), controller=case.blocks[0], sweep=sweep)
    got = run_sweep(cfg)
    assert len(got[1].run_ids) == 0 and sorted(got[1].divergences) == [0, 1, 2, 3]
    assert _row(got[1], cfg.system.target) == {"status": "failed: every trajectory diverged"}
    for result, want in zip(got, run_batches(cfg, value_blocks(cfg)), strict=True):
        assert_same_batch(result, want)
    if covariance == "diag":  # the other values' bits are those of a sweep without the divergent one
        without = run_sweep(replace(cfg, sweep=SweepSpec("k", (0.1, 0.5))))
        for result, want in zip([got[0], got[2]], without, strict=True):
            assert_same_batch(result, want)
        assert all(_row(r, cfg.system.target)["status"] == "ok" for r in without)


# gains at their bounds' edges and out to 1e300, on either side where the bound allows it
EXTREME = st.sampled_from((0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300, -1e300, -1.0)) | st.floats(-1e300, 1e300)


@st.composite
def extreme_configs(draw):
    """An accepted config of 1 to 3 diagonal components with means and variances out to 1.7e308, and a sweep."""
    dim, n_comp = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mean = st.floats(-1.7e308, 1.7e308) | st.sampled_from((0.0, 1e200, -1e200))
    variance = st.floats(1e-300, 1.7e308) | st.sampled_from((1e-300, 1.0, 1.7e308))
    components = tuple(ComponentSpec(1 / n_comp, tuple(draw(st.lists(mean, min_size=dim, max_size=dim))), "diag",
                                     tuple(draw(st.lists(variance, min_size=dim, max_size=dim))))
                       for _ in range(n_comp))
    conditions = {"first": (0,), "all": tuple(range(n_comp))}
    system = SystemSpec(dim, components, conditions, draw(st.sampled_from(sorted(conditions))))
    clamp = draw(st.floats(1e-300, 0.49) | st.sampled_from((1e-300, 1e-17, 5e-17)))
    try:
        sampler = SamplerSpec(draw(st.sampled_from(SCHEMES)), draw(st.integers(2, 8)), draw(st.integers(1, 5)),
                              draw(st.integers(0, 2**64 - 1)), draw(st.booleans()), clamp)
    except ConfigError:  # a Heun grid whose last corrector reaches tau = 1
        assume(False)
    name = draw(st.sampled_from([name for name in sorted(CONTROLLERS) if "w" in CONTROLLERS[name].keys]))
    block = draw(controller_block(name, EXTREME))
    parameter = draw(st.sampled_from([p for p in SWEEP_PARAMETERS if p in CONTROLLERS[name].keys]))
    values = draw(st.lists(EXTREME.filter(CONTROLLERS[name].keys[parameter].bound), min_size=1, max_size=3))
    return ExperimentConfig(system, block, sampler, SweepSpec(parameter, tuple(values)))


# the reference system with its means at +-1e200, where rectified_cfgpp's midpoint overflows
FAR = ExperimentConfig(
    SystemSpec(2, tuple(ComponentSpec(0.5, (m, 0.0), "diag", (1.0, 1.0)) for m in (1e200, -1e200)),
               {"first": (0,), "all": (0, 1)}, "first"),
    ControllerSpec("rectified_cfgpp", {"w": 5.0}),
    SamplerSpec("euler", 8, 5, 7, False, 1e-4),
    SweepSpec("w", (5.0, 0.0)),
)
FAR_BLOCKS = tuple(ControllerSpec(name, {"w_max" if name == "weight_schedule" else "w": 5.0})
                   for name in sorted(CONTROLLERS))
LAST_BELOW_ONE = SamplerSpec("heun", 6, 2, 0, True, 1e-300)  # its last corrector runs at tau = 1 - 2**-53


@settings(max_examples=60, derandomize=True, deadline=None)
@example(cfg=FAR, blocks=FAR_BLOCKS)
@example(cfg=replace(FAR, sampler=LAST_BELOW_ONE), blocks=FAR_BLOCKS)
@given(cfg=extreme_configs(), blocks=st.tuples(*(controller_block(name, EXTREME) for name in sorted(CONTROLLERS))))
def test_every_accepted_config_steps_without_raising(cfg, blocks):
    for results, count in ((run_batches(cfg, list(blocks)), len(blocks)), (run_sweep(cfg), len(cfg.sweep.values))):
        assert len(results) == count and all(isinstance(r, RunResult) for r in results)
        assert all(r.n_trajectories == cfg.sampler.trajectories for r in results)
