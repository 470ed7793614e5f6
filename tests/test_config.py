import json
import re

import numpy as np
import pytest

from cfgctrl.config import (
    ConfigError,
    build_control_law,
    build_system,
    config_from_dict,
    fingerprint,
    load_config,
    serialize_config,
    with_controller_value,
    with_seed,
)
from cfgctrl.guidance import CONTROLLERS

from conftest import REFERENCE_CONFIG


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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, seed):
        raw = minimal_dict()
        raw["sampler"]["seed"] = seed
        assert config_from_dict(raw).sampler.seed == seed

    def test_non_spd_covariance_rejected_at_build(self):
        raw = minimal_dict()
        raw["system"]["components"][0]["cov"] = {"full_lower": [[1.0], [5.0, 1.0]]}
        cfg = config_from_dict(raw)
        with pytest.raises(ConfigError, match="system"):
            build_system(cfg.system)


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


class TestFingerprint:
    @pytest.mark.parametrize("sweep, tag", [(None, "2390d759fe08"), ([1, 2, 5, 10, 15], "4d5953bd0fe1")])
    def test_reference_tags_pinned(self, sweep, tag):
        # every artifact name holds this tag, so a serialization change that moves it renames them all
        raw = json.loads(REFERENCE_CONFIG.read_text())
        if sweep is not None:
            raw["sweep"] = {"parameter": "w", "values": sweep}
        assert fingerprint(config_from_dict(raw)) == tag

    def test_stable_across_output_location(self):
        from dataclasses import replace

        cfg = config_from_dict(minimal_dict())
        moved = replace(cfg, output=replace(cfg.output, directory="elsewhere"))
        assert fingerprint(cfg) == fingerprint(moved)

    def test_seed_changes_fingerprint(self):
        cfg = config_from_dict(minimal_dict())
        assert fingerprint(cfg) != fingerprint(with_seed(cfg, 999))

    def test_sweep_value_substitution(self):
        cfg = config_from_dict(minimal_dict(type="smc", w=5.0))
        swapped = with_controller_value(cfg, "k", 0.4)
        assert swapped.controller.params["k"] == 0.4
        assert fingerprint(swapped) != fingerprint(cfg)
