import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgctrl.config import (
    ComponentSpec,
    ConfigError,
    ControllerSpec,
    ExperimentConfig,
    OutputSpec,
    SamplerSpec,
    SweepSpec,
    SystemSpec,
    build_control_law,
    build_system,
    config_from_dict,
    fingerprint,
    load_config,
    serialize_config,
    with_controller_value,
    with_seed,
)
from cfgctrl.guidance import CONTROLLERS, ControlLaw

from conftest import REFERENCE_CONFIG, REPO_ROOT


def minimal_dict(**controller):
    return {
        "system": {
            "dimension": 2,
            "components": [
                {"weight": 0.5, "mean": [3.0, 0.0], "cov": {"diag": [1.0, 1.0]}},
                {"weight": 0.5, "mean": [-3.0, 0.0], "cov": {"diag": [1.0, 1.0]}},
            ],
            "conditions": {"right": [0], "left": [1]},
            "target": "right",
        },
        "controller": controller or {"type": "cfg", "w": 2.0},
        "sampler": {"steps": 8, "trajectories": 3, "seed": 1},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }


class TestParsing:
    def test_round_trip_identical_structure(self):
        cfg = config_from_dict(minimal_dict())
        again = config_from_dict(json.loads(serialize_config(cfg)))
        assert cfg == again
        assert serialize_config(cfg) == serialize_config(again)

    def test_reference_config_loads(self, reference_config):
        assert reference_config.system.dimension == 2
        assert reference_config.controller.type == "smc"
        assert reference_config.system.target == "right"

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "system": [,\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_unknown_controller_type_names_field(self):
        raw = minimal_dict(type="pid", w=1.0)
        with pytest.raises(ConfigError, match="controller.type"):
            config_from_dict(raw)

    def test_non_string_controller_type_names_field(self):
        with pytest.raises(ConfigError, match="controller.type"):
            config_from_dict(minimal_dict(type=["smc"]))

    def test_unknown_controller_param_named(self):
        raw = minimal_dict(type="cfg", w=1.0, momentum=0.9)
        with pytest.raises(ConfigError, match="controller.momentum"):
            config_from_dict(raw)

    def test_built_law_refuses_a_key_its_controller_lacks(self):
        # the parser's refusal, for a spec built in code
        with pytest.raises(ConfigError, match=r"^controller\.lambda: not a parameter of controller 'cfg'$"):
            build_control_law(ControllerSpec("cfg", {"lambda": 1.0}))

    def test_unknown_condition_target(self):
        raw = minimal_dict()
        raw["system"]["target"] = "middle"
        with pytest.raises(ConfigError, match="system.target"):
            config_from_dict(raw)

    def test_condition_bad_index(self):
        raw = minimal_dict()
        raw["system"]["conditions"]["right"] = [7]
        with pytest.raises(ConfigError, match="system.conditions.right"):
            config_from_dict(raw)

    def test_weights_must_sum_to_one(self):
        raw = minimal_dict()
        raw["system"]["components"][0]["weight"] = 0.6
        with pytest.raises(ConfigError, match="weights sum"):
            config_from_dict(raw)

    def test_sweep_requires_values(self):
        raw = minimal_dict()
        raw["sweep"] = {"parameter": "w", "values": []}
        with pytest.raises(ConfigError, match="sweep.values"):
            config_from_dict(raw)

    def test_sweep_lambda_needs_smc(self):
        raw = minimal_dict()
        raw["sweep"] = {"parameter": "lambda", "values": [1.0]}
        with pytest.raises(ConfigError, match="sweep.parameter"):
            config_from_dict(raw)

    def test_unknown_format_rejected(self):
        raw = minimal_dict()
        raw["output"]["formats"] = ["csv", "pdf"]
        with pytest.raises(ConfigError, match="output.formats"):
            config_from_dict(raw)

    def test_full_lower_covariance(self):
        raw = minimal_dict()
        raw["system"]["components"][0]["cov"] = {"full_lower": [[2.0], [0.3, 1.0]]}
        cfg = config_from_dict(raw)
        cov = cfg.system.components[0].cov_matrix()
        assert np.allclose(cov, [[2.0, 0.3], [0.3, 1.0]])
        system = build_system(cfg.system)
        assert system.dim == 2

    @pytest.mark.parametrize(
        "block, key, value, field",
        [
            ("sampler", "trajectories", True, "sampler.trajectories"),
            ("sampler", "seed", False, "sampler.seed"),
            ("sampler", "steps", True, "sampler.steps"),
            ("system", "dimension", True, "system.dimension"),
            ("conditions", "right", [True], "system.conditions.right"),
        ],
    )
    def test_boolean_is_not_an_integer(self, block, key, value, field):
        raw = minimal_dict()
        target = raw["system"]["conditions"] if block == "conditions" else raw[block]
        target[key] = value
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)
        if block == "sampler":  # a spec built in code meets the same rule
            with pytest.raises(ConfigError, match=field):
                replace(config_from_dict(minimal_dict()).sampler, **{key: value})

    @pytest.mark.parametrize(
        "keys, token, field",
        [
            (("system", "components", 0, "mean", 1), "NaN", "system.components[0].mean"),
            (("system", "components", 1, "cov", "full_lower", 1, 0), "NaN", "system.components[1].cov.full_lower[1]"),
            (("controller", "w"), "Infinity", "controller.w"),
            (("sweep", "values", 1), "-Infinity", "sweep.values"),
            (("controller", "w"), "1" + "0" * 400, "controller.w"),  # an int no float can hold
        ],
        ids=["nan_mean", "nan_full_lower", "inf_w", "minus_inf_sweep_value", "huge_int_w"],
    )
    def test_non_finite_number_names_field(self, keys, token, field):
        raw = minimal_dict()
        raw["system"]["components"][1]["cov"] = {"full_lower": [[1.0], [0.0, 1.0]]}
        raw["sweep"] = {"parameter": "w", "values": [1.0, 2.0]}
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = json.loads(token)
        with pytest.raises(ConfigError, match=re.escape(f"{field}: must be a finite number")):
            config_from_dict(raw)

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, 10**30])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the streams key on the seed mod 2**64: 2**64 + 7 would rerun seed 7 under another fingerprint
        raw = minimal_dict()
        raw["sampler"]["seed"] = seed
        with pytest.raises(ConfigError, match=re.escape("sampler.seed: must lie in [0, 2**64)")):
            config_from_dict(raw)
        with pytest.raises(ConfigError, match=re.escape("sampler.seed: must lie in [0, 2**64)")):
            replace(config_from_dict(minimal_dict()).sampler, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        raw = minimal_dict()
        raw["sampler"]["seed"] = seed
        assert config_from_dict(raw).sampler.seed == seed

    @pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("key", ["steps", "trajectories"])
    def test_size_past_numpy_dimensions_rejected(self, key, value):
        # each sizes an array axis: past np.intp, dtau overflowed or numpy refused the dimension, with a traceback
        raw = minimal_dict()
        raw["sampler"][key] = value
        message = f"sampler.{key}: must be at most {np.iinfo(np.intp).max}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(raw)
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(config_from_dict(minimal_dict()).sampler, **{key: value})

    @pytest.mark.parametrize("key", ["steps", "trajectories"])
    def test_size_at_numpy_dimensions_accepted(self, key):
        raw = minimal_dict()
        raw["sampler"][key] = int(np.iinfo(np.intp).max)
        assert getattr(config_from_dict(raw).sampler, key) == np.iinfo(np.intp).max

    def test_heun_clamp_rule_is_the_samplers_arithmetic(self):
        # a Heun sampler is refused exactly where its last corrector time, tau_grid()[-1] + dtau, reaches 1
        refused = 0
        for clamp in (1e-300, 1e-17, 5e-17, 6e-17, 1e-4, 0.25):
            for steps in range(2, 130):
                euler = SamplerSpec("euler", steps, tau_clamp=clamp)
                if euler.tau_grid()[-1] + euler.dtau < 1.0:
                    assert SamplerSpec("heun", steps, tau_clamp=clamp).dtau == euler.dtau
                    continue
                refused += 1
                with _refused(f"sampler.tau_clamp: too small for heun at {steps} steps: "
                              "the last corrector stage reaches tau = 1"):
                    SamplerSpec("heun", steps, tau_clamp=clamp)
        assert 0 < refused < 6 * 128

    def test_non_spd_covariance_rejected(self):
        raw = minimal_dict()
        raw["system"]["components"][0]["cov"] = {"full_lower": [[1.0], [5.0, 1.0]]}
        with pytest.raises(ConfigError, match=r"^system\.components\[0\]\.cov: must be positive definite$"):
            config_from_dict(raw)


class TestBuildControlLaw:
    def test_smc_params(self):
        cfg = config_from_dict(minimal_dict(type="smc", w=5.0, **{"lambda": 4.0, "k": 0.2}))
        law = build_control_law(cfg.controller)
        assert law.variant == "smc" and law.w == 5.0 and law.lam == 4.0 and law.k == 0.2

    def test_smc_defaults(self):
        cfg = config_from_dict(minimal_dict(type="smc", w=5.0))
        law = build_control_law(cfg.controller)
        assert law.lam == 6.0 and law.k == 0.1 and law.boundary_layer == 0.0

    def test_weight_schedule_requires_w_max(self):
        with pytest.raises(ConfigError, match="w_max"):
            config_from_dict(minimal_dict(type="weight_schedule"))

    def test_rectified_defaults(self):
        cfg = config_from_dict(minimal_dict(type="rectified_cfgpp", w=4.0))
        law = build_control_law(cfg.controller)
        assert law.lam_max is None and law.gamma == 1.0  # resolves to w - 1 at dispatch

    @pytest.mark.parametrize(
        "controller, expected",
        [
            ({"type": "cfg"}, {"w": 1.0}),
            ({"type": "weight_schedule", "w_max": 3.0}, {"w": 3.0, "shape": "cosine"}),
            ({"type": "apg"}, {"w": 1.0, "eta": 0.5}),
            ({"type": "cfg_zero_star"}, {"w": 1.0}),
            ({"type": "rectified_cfgpp"}, {"w": 1.0, "lam_max": None, "gamma": 1.0}),
            ({"type": "smc"}, {"w": 1.0, "lam": 6.0, "k": 0.1, "boundary_layer": 0.0}),
        ],
    )
    def test_required_keys_alone_give_defaults(self, controller, expected):
        law = build_control_law(config_from_dict(minimal_dict(**controller)).controller)
        assert law.variant == controller["type"]
        assert {name: getattr(law, name) for name in expected} == expected


# One out-of-bounds value per bounded controller key, and a valid value per required key.
BAD_VALUES = {"w": -0.5, "w_max": 0.5, "eta": 1.5, "lambda": 0.0, "k": -0.1, "boundary_layer": -1.0, "shape": "square"}
REQUIRED_VALUES = {"w_max": 3.0}


@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
def test_controller_bounds_name_the_key(kind):
    keys = CONTROLLERS[kind].keys
    required = {key: REQUIRED_VALUES[key] for key, spec in keys.items() if spec.required}
    config_from_dict(minimal_dict(type=kind, **required))
    for key, spec in keys.items():
        if not (spec.message or spec.choices):
            continue
        assert key in BAD_VALUES, f"no out-of-bounds value for {kind}.{key}"
        raw = minimal_dict(type=kind, **{**required, key: BAD_VALUES[key]})
        with pytest.raises(ConfigError, match=rf"controller\.{key}:"):
            config_from_dict(raw)


def _refused(message: str):
    return pytest.raises(ConfigError, match=f"^{re.escape(message)}$")


# Blocks that a spec built in code once ran (some under another fingerprint) or failed on at step time.
CONTROLLER_HOLES = {
    "w_true": ({"type": "cfg", "w": True}, "controller.w: must be a number"),
    "w_str": ({"type": "cfg", "w": "5"}, "controller.w: must be a number"),
    "w_nan": ({"type": "apg", "w": float("nan")}, "controller.w: must be a finite number"),
    "gamma_inf": ({"type": "rectified_cfgpp", "gamma": float("inf")}, "controller.gamma: must be a finite number"),
    "lambda_max_nan": ({"type": "rectified_cfgpp", "lambda_max": float("nan")},
                       "controller.lambda_max: must be a finite number"),
    "no_w_max": ({"type": "weight_schedule"}, "controller: missing required key 'w_max'"),
    "shape_zig": ({"type": "weight_schedule", "w_max": 5.0, "shape": "zig"}, "controller.shape: unknown shape 'zig'"),
    "eta_2": ({"type": "apg", "eta": 2}, "controller.eta: must be at most 1"),
    "k_negative": ({"type": "smc", "k": -1}, "controller.k: must be nonnegative"),
    "lambda_0": ({"type": "smc", "lambda": 0}, "controller.lambda: must be positive"),
    "boundary_layer_nan": ({"type": "smc", "boundary_layer": float("nan")},
                           "controller.boundary_layer: must be a finite number"),
}


def split_block(block: dict) -> tuple:
    """A controller block as ControllerSpec's arguments."""
    return block["type"], {key: value for key, value in block.items() if key != "type"}


@pytest.mark.parametrize("block, message", CONTROLLER_HOLES.values(), ids=CONTROLLER_HOLES)
def test_built_spec_refuses_as_the_parser_does(block, message):
    with _refused(message):
        config_from_dict(minimal_dict(**block))
    with _refused(message):
        ControllerSpec(*split_block(block))


@pytest.mark.parametrize("key, value, message", [
    ("seed", 2.7, "sampler.seed: must be an integer"),
    ("seed", "5", "sampler.seed: must be an integer"),
    ("seed", True, "sampler.seed: must be an integer"),
    ("w", "5", "controller.w: must be a number"),
    ("w", True, "controller.w: must be a number"),
    ("w", np.float32(2.5), "controller.w: must be a number"),
    ("momentum", 1.0, "controller.momentum: not a parameter of controller 'cfg'"),
], ids=["seed_float", "seed_str", "seed_bool", "w_str", "w_bool", "w_float32", "unknown_key"])
def test_overrides_refuse_what_the_spec_refuses(key, value, message):
    cfg = config_from_dict(minimal_dict())
    with _refused(message):
        with_seed(cfg, value) if key == "seed" else with_controller_value(cfg, key, value)


# A valid value for every controller key, and a pool of values to mutate a block with.
VALID_VALUES = {"w": 2.0, "w_max": 3.0, "shape": "linear", "eta": 0.5, "lambda_max": 2.0, "gamma": 1.0,
                "lambda": 6.0, "k": 0.1, "boundary_layer": 0.05}
MUTANT_KEYS = sorted(VALID_VALUES) + ["type", "momentum"]
MUTANT_VALUES = st.one_of(
    st.sampled_from(["5", "linear", "cosine", "zig", *sorted(CONTROLLERS), True, False, None, [], [1.0], {},
                     float("nan"), float("inf"), float("-inf"), 10**400, -(10**400)]),
    st.floats(-3.0, 3.0),
    st.integers(-3, 3),
)


@st.composite
def mutated_blocks(draw):
    """A full valid block of some controller with one to three keys dropped, added or given another value."""
    kind = draw(st.sampled_from(sorted(CONTROLLERS)))
    block = {"type": kind, **{key: VALID_VALUES[key] for key in CONTROLLERS[kind].keys}}
    for _ in range(draw(st.integers(1, 3))):
        params = sorted(key for key in block if key != "type")  # a spec always has a type: only the parser can miss it
        absent = [key for key in MUTANT_KEYS if key not in block]
        mutation = draw(st.sampled_from(["drop", "add", "swap"] if params else ["add", "swap"]))
        if mutation == "drop":
            del block[draw(st.sampled_from(params))]
        else:
            block[draw(st.sampled_from(absent if mutation == "add" else sorted(block)))] = draw(MUTANT_VALUES)
    return block


def parse_or_refuse(make):
    try:
        return make()
    except ConfigError as exc:
        return f"refused: {exc}"


# a refusal's field: a block (or the whole config), then any .key or [i] parts
FIELD_PATH = re.compile(r"refused: (config|system|controller|sampler|sweep|output)(\.\w+|\[\d+\])*: ")


def assert_names_a_field(*outcomes):
    for outcome in outcomes:
        assert not isinstance(outcome, str) or FIELD_PATH.match(outcome), outcome


@settings(max_examples=300)
@given(mutated_blocks())
@example({"type": "cfg", "w": True})
@example({"type": "cfg", "w": 5})
@example({"type": "weight_schedule", "shape": "cosine"})
def test_parsed_and_built_controller_specs_agree(block):
    parsed = parse_or_refuse(lambda: config_from_dict(minimal_dict(**block)).controller)
    built = parse_or_refuse(lambda: ControllerSpec(*split_block(block)))
    assert repr(parsed) == repr(built)  # a spec's repr shows 5 and 5.0 apart
    assert_names_a_field(parsed)


class TestFingerprint:
    @pytest.mark.parametrize("sweep, tag", [(None, "2390d759fe08"), ([1, 2, 5, 10, 15], "4d5953bd0fe1")])
    def test_reference_tags_pinned(self, sweep, tag):
        # every artifact name holds this tag, so a serialization change that moves it renames them all
        raw = json.loads(REFERENCE_CONFIG.read_text())
        if sweep is not None:
            raw["sweep"] = {"parameter": "w", "values": sweep}
        assert fingerprint(config_from_dict(raw)) == tag

    def test_stable_across_output_location(self):
        cfg = config_from_dict(minimal_dict())
        moved = replace(cfg, output=replace(cfg.output, directory="elsewhere"))
        assert fingerprint(cfg) == fingerprint(moved)

    def test_integer_gain_fingerprints_as_parsed(self, reference_config):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["controller"] = {"type": "cfg", "w": 5}
        built = replace(reference_config, controller=ControllerSpec("cfg", {"w": 5}))
        assert fingerprint(built) == fingerprint(config_from_dict(raw))

    def test_seed_changes_fingerprint(self):
        cfg = config_from_dict(minimal_dict())
        assert fingerprint(cfg) != fingerprint(with_seed(cfg, 999))

    def test_sweep_value_substitution(self):
        cfg = config_from_dict(minimal_dict(type="smc", w=5.0))
        swapped = with_controller_value(cfg, "k", 0.4)
        assert swapped.controller.params["k"] == 0.4
        assert fingerprint(swapped) != fingerprint(cfg)

    def test_any_key_of_the_controller_can_be_substituted(self):
        # not only the swept keys: the controller block's rules decide
        cfg = config_from_dict(minimal_dict(type="apg", w=5.0))
        assert with_controller_value(cfg, "eta", 0.3).controller.params == {"w": 5.0, "eta": 0.3}


class TestReadOnlyMappings:
    """A spec's mappings refuse writes, which would skip the rules its construction applies."""

    def test_writes_raise(self):
        cfg = load_config(str(REFERENCE_CONFIG))
        with pytest.raises(TypeError):
            cfg.controller.params["lambda"] = -1.0
        with pytest.raises(TypeError):
            cfg.system.conditions["added"] = (0,)
        assert cfg == load_config(str(REFERENCE_CONFIG))

    def test_spec_keeps_a_copy_of_the_mappings_given(self):
        conditions, params = {"right": (0,)}, {"w": 2.0}
        system = SystemSpec(2, (ComponentSpec(1.0, (0.0, 0.0), "diag", (1.0, 1.0)),), conditions, "right")
        controller = ControllerSpec("cfg", params)
        conditions["added"], params["w"] = (1,), -1.0
        assert dict(system.conditions) == {"right": (0,)} and dict(controller.params) == {"w": 2.0}

    @pytest.mark.parametrize("patch, tag, digest", [
        ({}, "2390d759fe08", "8c195099b2df6db8"),
        ({"sweep": {"parameter": "w", "values": [1, 2, 5, 10, 15]}}, "4d5953bd0fe1", "ad3ace53eee4fccf"),
    ], ids=["reference", "sweep"])
    def test_canonical_text_pinned(self, patch, tag, digest):
        cfg = config_from_dict(json.loads(REFERENCE_CONFIG.read_text()) | patch)
        assert fingerprint(cfg) == tag
        assert hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16] == digest

    def test_full_covariance_text_pinned(self):
        raw = json.loads(REFERENCE_CONFIG.read_text())
        raw["sweep"] = {"parameter": "w", "values": [1, 2, 5, 10, 15]}
        raw["system"]["components"][0]["cov"] = {"full_lower": [[1.0], [0.3, 2.0]]}
        text = serialize_config(config_from_dict(raw))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "75ce95ced78b8468"
        assert config_from_dict(json.loads(text)) == config_from_dict(raw)


def _with_component(system: SystemSpec, i: int = 0, **change) -> SystemSpec:
    comps = list(system.components)
    comps[i] = replace(comps[i], **change)
    return replace(system, components=tuple(comps))


# Specs built in code that once ran (some under another fingerprint), or were refused naming no field.
BUILT_HOLES = {
    "dimension_3": (lambda cfg: replace(cfg.system, dimension=3), "system.components[0].mean: must be a list of 3 numbers"),
    "nan_mean": (lambda cfg: _with_component(cfg.system, mean=(float("nan"), 0.0)),
                 "system.components[0].mean: must be a finite number"),
    "unknown_target": (lambda cfg: replace(cfg.system, target="nope"), "system.target: references unknown condition 'nope'"),
    "cov_form_zig": (lambda cfg: _with_component(cfg.system, cov_form="zig"),
                     "system.components[0].cov: unknown covariance form 'zig'"),
    "weights_off_1": (lambda cfg: _with_component(cfg.system, weight=0.25),
                      "system.components: weights sum to 0.75, expected 1"),
    "negative_variance": (lambda cfg: _with_component(cfg.system, 1, cov_payload=(1.0, -1.0)),
                          "system.components[1].cov: must be positive definite"),
    "bad_index": (lambda cfg: replace(cfg.system, conditions={"right": (0,), "left": (2,)}),
                  "system.conditions.left: invalid component index 2"),
    "negative_index": (lambda cfg: replace(cfg.system, conditions={"right": (0,), "left": (-1,)}),
                       "system.conditions.left: invalid component index -1"),
    "non_pd_full_lower": (lambda cfg: _with_component(cfg.system, 1, cov_form="full_lower", cov_payload=((1.0,), (2.0, 1.0))),
                          "system.components[1].cov: must be positive definite"),
    "condition_named_none": (lambda cfg: replace(cfg.system, conditions={None: (0,), "right": (0,)}),
                             "system.conditions.None: a condition's name must be a string"),
    "numpy_dimension": (lambda cfg: replace(cfg.system, dimension=np.int64(2)), "system.dimension: must be an integer"),
    "numpy_index": (lambda cfg: replace(cfg.system, conditions={"right": (np.int64(0),)}),
                    "system.conditions.right: must be an integer"),
    "empty_directory": (lambda cfg: OutputSpec("", ("png",)), "output.directory: must be a nonempty string"),
    "nul_in_directory": (lambda cfg: OutputSpec("o\0ut"), "output.directory: must hold no NUL character"),
    "png_format": (lambda cfg: replace(cfg.output, formats=("png",)), "output.formats: unknown format 'png'"),
    "negative_sweep_value": (lambda cfg: replace(cfg, sweep=SweepSpec("w", (-1.0, 2.0))),
                             "sweep.values: guidance scale must be nonnegative"),
    "sweep_parameter_eta": (lambda cfg: SweepSpec("eta", (0.5,)), "sweep.parameter: must be one of ['w', 'lambda', 'k']"),
}


@pytest.mark.parametrize("make, message", BUILT_HOLES.values(), ids=BUILT_HOLES)
def test_built_system_sweep_and_output_refused_by_field(reference_config, make, message):
    with _refused(message):
        make(reference_config)


# A block or component given as something other than its spec once raised AttributeError or was accepted.
NOT_A_SPEC = {
    "controller_dict_with_sweep": (lambda cfg: replace(cfg, controller={"type": "cfg"}, sweep=SweepSpec("w", (1.0,))),
                                   "controller: must be of type ControllerSpec"),
    "component_dict": (lambda cfg: replace(cfg.system, components=({"weight": 1.0, "mean": [0.0, 0.0],
                                                                    "cov": {"diag": [1.0, 1.0]}},)),
                       "system.components[0]: must be of type ComponentSpec"),
    "sweep_dict": (lambda cfg: replace(cfg, sweep={"parameter": "w", "values": [1.0]}), "sweep: must be of type SweepSpec"),
    "system_dict": (lambda cfg: replace(cfg, system={"dimension": 2}), "system: must be of type SystemSpec"),
    "sampler_none": (lambda cfg: replace(cfg, sampler=None), "sampler: must be of type SamplerSpec"),
    "output_str": (lambda cfg: replace(cfg, output="out"), "output: must be of type OutputSpec"),
    "controller_dict": (lambda cfg: replace(cfg, controller={"type": "cfg"}), "controller: must be of type ControllerSpec"),
}


@pytest.mark.parametrize("make, message", NOT_A_SPEC.values(), ids=NOT_A_SPEC)
def test_a_block_or_component_that_is_not_its_spec_is_refused(reference_config, make, message):
    with _refused(message):
        make(reference_config)


def test_spec_keeps_the_object_it_built(reference_config):
    # build_system and build_control_law hand back what the spec built at parse, and a replaced spec builds anew
    system, controller = reference_config.system, reference_config.controller
    assert build_system(system) is system.flow and build_control_law(controller) is controller.law
    assert controller.law == ControlLaw("smc", w=5.0, lam=6.0, k=0.1, boundary_layer=0.0)
    assert dict(system.flow.conditions) == {"right": (0,), "left": (1,)}
    assert system.conditions is system.flow.conditions
    assert replace(system, target="left").flow is not system.flow
    with pytest.raises(FrozenInstanceError):
        system.flow = None
    with pytest.raises(FrozenInstanceError):
        controller.law = ControlLaw("cfg")
    assert "flow" not in {f.name for f in fields(SystemSpec)} and "law" not in {f.name for f in fields(ControllerSpec)}


def test_built_system_stores_floats(reference_config):
    # integer means once ran under another fingerprint
    built = replace(reference_config, system=_with_component(reference_config.system, mean=(3, 0)))
    assert built == reference_config and fingerprint(built) == "2390d759fe08"
    assert isinstance(built.system.components[0].mean[0], float)


def test_readme_config_example_is_valid():
    readme = (REPO_ROOT / "README.md").read_text()
    (example,) = re.findall(r"```jsonc\n(.*?)```", readme, flags=re.S)
    cfg = config_from_dict(json.loads(re.sub(r"//[^\n]*", "", example)))
    assert build_system(cfg.system).dim == cfg.system.dimension


def test_readme_library_example_runs():
    readme = (REPO_ROOT / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", example], cwd=REPO_ROOT,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for printed in re.findall(r"print\(.*\)  # (.*)", example):  # a print's comment says what it prints
        assert printed in proc.stdout


class NotInCode(Exception):
    """A JSON shape no spec's arguments have: a missing or unknown key, or an object that is not one."""


def _keys_of(block, spec: type) -> dict:
    names = {f.name for f in fields(spec)}
    required = {f.name for f in fields(spec) if f.default is MISSING}
    if not (isinstance(block, dict) and required <= set(block) <= names):
        raise NotInCode
    return block


def _tup(value):
    """A JSON list as code writes a tuple field; any other value as given."""
    return tuple(value) if isinstance(value, list) else value


def _component_in_code(block) -> ComponentSpec:
    if not (isinstance(block, dict) and set(block) == {"weight", "mean", "cov"}):
        raise NotInCode
    if not (isinstance(block["cov"], dict) and len(block["cov"]) == 1):
        raise NotInCode
    ((form, payload),) = block["cov"].items()
    rows = tuple(_tup(row) for row in payload) if isinstance(payload, list) else payload
    return ComponentSpec(block["weight"], _tup(block["mean"]), form, rows)


def specs_in_code(raw: dict) -> ExperimentConfig:
    """The config a program would build from ``raw``'s blocks, with tuples where the file has lists."""
    system, output = _keys_of(raw["system"], SystemSpec), _keys_of(raw["output"], OutputSpec)
    sweep = _keys_of(raw["sweep"], SweepSpec) if "sweep" in raw else None
    comps, conds = system["components"], system["conditions"]
    comps = tuple(_component_in_code(c) for c in comps) if isinstance(comps, list) else comps
    if isinstance(conds, dict):
        conds = {name: _tup(subset) for name, subset in conds.items()}
    return ExperimentConfig(
        SystemSpec(system["dimension"], comps, conds, system["target"]),
        ControllerSpec(*split_block(raw["controller"])),
        SamplerSpec(**raw["sampler"]),
        None if sweep is None else SweepSpec(sweep["parameter"], _tup(sweep["values"])),
        OutputSpec(**{key: _tup(value) for key, value in output.items()}),
    )


def fuzz_base() -> dict:
    """The reference config with one full-covariance component and a sweep block."""
    raw = json.loads(REFERENCE_CONFIG.read_text())
    raw["system"]["components"][1]["cov"] = {"full_lower": [[1.0], [0.3, 2.0]]}
    raw["sweep"] = {"parameter": "w", "values": [1, 2, 5, 10, 15]}
    return raw


def patched(*edits) -> dict:
    """``fuzz_base()`` with each (path, value) edit made."""
    raw = fuzz_base()
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return raw


def _sites(node, path=()):
    """The path of ``node`` and of everything under it."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _sites(child, path + (key,))


LEAVES = st.sampled_from([0, 1, 2, 7, -1, 0.25, 0.5, 2.0, 5.0, -1.0, 1e308, 2**70, 10**400, True, None, "", "nope",
                          "right", "diag", "full_lower", "png", "csv", "lambda", "eta", [], {}, [1.0], float("nan"),
                          float("inf")]).map(copy.deepcopy)  # a fresh [] or {} for each draw: mutations add to them


@st.composite
def mutated_configs(draw):
    """The fuzz base with one to three of its system, sweep and output nodes dropped, added to, nested or replaced."""
    raw = fuzz_base()
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for block in ("system", "sweep", "output") if block in raw
                                     for p in _sites(raw[block], (block,))]))
        parent = raw
        for key in path[:-1]:
            parent = parent[key]
        key, node = path[-1], parent[path[-1]]
        mutation = draw(st.sampled_from(["drop", "add", "deeper", "shallower", "replace"]))
        if mutation == "drop" and len(path) > 1:
            del parent[key]
        elif mutation == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "right", "formats", "values", "weight"]))] = draw(LEAVES)
        elif mutation == "add" and isinstance(node, list):
            node.append(draw(LEAVES))
        elif mutation == "deeper":
            parent[key] = [node]
        elif mutation == "shallower" and isinstance(node, list) and node:
            parent[key] = node[0]
        else:
            parent[key] = draw(LEAVES)
    return raw


COMPONENT = ("system", "components")


@settings(max_examples=400)
@given(mutated_configs())
@example(patched((("system", "dimension"), 3)))
@example(patched((COMPONENT + (0, "mean"), [3, 0])))
@example(patched((COMPONENT + (0, "mean"), [float("nan"), 0.0])))
@example(patched((("system", "target"), "nope")))
@example(patched((COMPONENT + (0, "cov"), {"zig": [1.0, 1.0]})))
@example(patched((("output",), {"directory": "", "formats": ["png"]})))
@example(patched((("sweep", "values"), [-1.0, 2.0])))
@example(patched((COMPONENT + (0, "weight"), 0.25)))
@example(patched((COMPONENT + (0, "cov", "diag"), [1.0, -1.0])))
@example(patched((("system", "conditions", "left"), [2])))
@example(patched((COMPONENT + (1, "cov", "full_lower"), [[1.0], [2.0, 1.0]])))
@example(patched((("system", "conditions"), {None: [0], "right": [0]})))
@example(patched((("sweep", "parameter"), "lambda"), (("sweep", "values"), [])))
@example(patched((("sweep",), None)))
def test_parsed_and_built_configs_agree(raw):
    parsed = parse_or_refuse(lambda: config_from_dict(raw))
    try:
        built = parse_or_refuse(lambda: specs_in_code(raw))
    except NotInCode:  # a shape only the parser sees
        assert isinstance(parsed, str)
        assert_names_a_field(parsed)
        return
    assert repr(parsed) == repr(built)
    assert_names_a_field(parsed)
    if not isinstance(parsed, str):
        build_system(parsed.system)  # every accepted system builds
