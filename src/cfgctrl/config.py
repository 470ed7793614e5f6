"""Experiment configuration: JSON schema, validation, canonical form.

A config file is a single JSON object with four or five blocks::

    {
      "system":     {"dimension": 2, "components": [...], "conditions": {...}, "target": "..."},
      "controller": {"type": "smc", "w": 5.0, "lambda": 6.0, "k": 0.1, "boundary_layer": 0.0},
      "sampler":    {"scheme": "euler", "steps": 64, "trajectories": 50, "seed": 7,
                     "record_x": false, "tau_clamp": 1e-4},
      "sweep":      {"parameter": "w", "values": [1, 2, 5, 10, 15]},   # optional
      "output":     {"directory": "out", "formats": ["csv", "json", "svg"]}
    }

Components give "weight", "mean", and "cov" as either {"diag": [...]} or
{"full_lower": [[...], ...]} (lower triangle, mirrored to a symmetric
matrix). Validation errors carry the offending field path.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .flow_systems import FlowSystem, GaussComponent
from .guidance import CONTROLLERS, ControlLaw

SWEEP_PARAMETERS = ("w", "lambda", "k")
OUTPUT_FORMATS = ("csv", "json", "svg")
SCHEMES = ("euler", "heun")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _require_keys(block: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    _expect(isinstance(block, dict), path, "must be a JSON object")
    for key in required:
        _expect(key in block, path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in block:
        _expect(key in allowed, f"{path}.{key}", "unknown key")


def _as_number(value, path: str) -> float:
    """A finite float; JSON booleans and json's NaN and Infinity tokens are refused."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number")
    # NaN fails the comparison, and so do the infinities and ints past the float range
    _expect(abs(value) <= sys.float_info.max, path, "must be a finite number")
    return float(value)


def _as_int(value, path: str, minimum: int | None = None) -> int:
    """An integer no smaller than ``minimum``; JSON booleans are refused."""
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
    _expect(minimum is None or value >= minimum, path, f"must be at least {minimum}")
    return value


def check_seed(value, path: str) -> int:
    """A seed in [0, 2**64): the random streams key on the seed mod 2**64, so any other would rerun one of those."""
    _expect(0 <= _as_int(value, path) < 2**64, path, "must lie in [0, 2**64)")
    return value


@dataclass(frozen=True)
class ComponentSpec:
    weight: float
    mean: tuple[float, ...]
    cov_form: str  # "diag" | "full_lower"
    cov_payload: tuple

    def cov_matrix(self) -> np.ndarray:
        d = len(self.mean)
        if self.cov_form == "diag":
            return np.diag(np.asarray(self.cov_payload, dtype=float))
        m = np.zeros((d, d))
        for i, row in enumerate(self.cov_payload):
            for j, value in enumerate(row):
                m[i, j] = value
                m[j, i] = value
        return m


@dataclass(frozen=True)
class SystemSpec:
    dimension: int
    components: tuple[ComponentSpec, ...]
    conditions: dict[str, tuple[int, ...]]
    target: str


@dataclass(frozen=True)
class ControllerSpec:
    type: str
    params: dict[str, float | str]


@dataclass(frozen=True)
class SamplerSpec:
    scheme: str = "euler"
    steps: int = 64
    trajectories: int = 50
    seed: int = 0
    record_x: bool = False
    tau_clamp: float = 1e-4


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec
    controller: ControllerSpec
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    sweep: SweepSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)


def _parse_controller(block: dict, path: str) -> ControllerSpec:
    _expect(isinstance(block, dict), path, "must be a JSON object")
    _expect("type" in block, path, "missing required key 'type'")
    kind = block["type"]
    _expect(isinstance(kind, str) and kind in CONTROLLERS, f"{path}.type", f"unknown controller type {kind!r}")
    keys = CONTROLLERS[kind].keys
    params: dict[str, float | str] = {}
    for key, value in block.items():
        if key == "type":
            continue
        _expect(key in keys, f"{path}.{key}", f"not a parameter of controller {kind!r}")
        if keys[key].choices:
            _expect(value in keys[key].choices, f"{path}.{key}", f"unknown {key} {value!r}")
            params[key] = value
        else:
            params[key] = _as_number(value, f"{path}.{key}")
    for key, spec in keys.items():
        _expect(key in params or not spec.required, path, f"missing required key {key!r}")
        _expect(key not in params or spec.bound(params[key]), f"{path}.{key}", spec.message)
    return ControllerSpec(type=kind, params=params)


def _parse_component(block: dict, path: str, dim: int) -> ComponentSpec:
    _require_keys(block, path, ("weight", "mean", "cov"))
    weight = _as_number(block["weight"], f"{path}.weight")
    _expect(0.0 < weight <= 1.0, f"{path}.weight", "must lie in (0, 1]")
    mean = block["mean"]
    _expect(isinstance(mean, list) and len(mean) == dim, f"{path}.mean", f"must be a list of {dim} numbers")
    mean_t = tuple(_as_number(v, f"{path}.mean") for v in mean)
    cov = block["cov"]
    _expect(isinstance(cov, dict) and len(cov) == 1, f"{path}.cov", "must be {'diag': [...]} or {'full_lower': [[...], ...]}")
    form, payload = next(iter(cov.items()))
    if form == "diag":
        _expect(isinstance(payload, list) and len(payload) == dim, f"{path}.cov.diag", f"must list {dim} variances")
        entries = tuple(_as_number(v, f"{path}.cov.diag") for v in payload)
        _expect(all(v > 0 for v in entries), f"{path}.cov.diag", "variances must be positive")
        return ComponentSpec(weight, mean_t, "diag", entries)
    if form == "full_lower":
        _expect(isinstance(payload, list) and len(payload) == dim, f"{path}.cov.full_lower", f"must have {dim} rows")
        rows = []
        for i, row in enumerate(payload):
            _expect(isinstance(row, list) and len(row) == i + 1, f"{path}.cov.full_lower[{i}]", f"row {i} must have {i + 1} entries")
            rows.append(tuple(_as_number(v, f"{path}.cov.full_lower[{i}]") for v in row))
        return ComponentSpec(weight, mean_t, "full_lower", tuple(rows))
    raise ConfigError(f"{path}.cov: unknown covariance form {form!r}")


def _parse_system(block: dict, path: str) -> SystemSpec:
    _require_keys(block, path, ("dimension", "components", "conditions", "target"))
    dim = _as_int(block["dimension"], f"{path}.dimension", 1)
    comps = block["components"]
    _expect(isinstance(comps, list) and comps, f"{path}.components", "must be a nonempty list")
    components = tuple(_parse_component(c, f"{path}.components[{i}]", dim) for i, c in enumerate(comps))
    total = sum(c.weight for c in components)
    _expect(abs(total - 1.0) <= 1e-12, f"{path}.components", f"weights sum to {total!r}, expected 1")
    conds_block = block["conditions"]
    _expect(isinstance(conds_block, dict) and conds_block, f"{path}.conditions", "must be a nonempty object")
    conditions: dict[str, tuple[int, ...]] = {}
    for name, subset in conds_block.items():
        cpath = f"{path}.conditions.{name}"
        _expect(isinstance(subset, list) and subset, cpath, "must be a nonempty list of component indices")
        idx = [_as_int(v, cpath, 0) for v in subset]
        for v in idx:
            _expect(v < len(components), cpath, f"invalid component index {v!r}")
        _expect(len(set(idx)) == len(idx), cpath, "repeats a component index")
        conditions[name] = tuple(idx)
    target = block["target"]
    _expect(isinstance(target, str) and target in conditions, f"{path}.target", f"references unknown condition {target!r}")
    return SystemSpec(dim, components, conditions, target)


def _parse_sampler(block: dict, path: str) -> SamplerSpec:
    defaults = SamplerSpec()
    _require_keys(block, path, (), ("scheme", "steps", "trajectories", "seed", "record_x", "tau_clamp"))
    scheme = block.get("scheme", defaults.scheme)
    _expect(scheme in SCHEMES, f"{path}.scheme", f"unknown scheme {scheme!r}")
    steps = _as_int(block.get("steps", defaults.steps), f"{path}.steps", 2)
    traj = _as_int(block.get("trajectories", defaults.trajectories), f"{path}.trajectories", 1)
    seed = check_seed(block.get("seed", defaults.seed), f"{path}.seed")
    record_x = block.get("record_x", defaults.record_x)
    _expect(isinstance(record_x, bool), f"{path}.record_x", "must be a boolean")
    clamp = _as_number(block.get("tau_clamp", defaults.tau_clamp), f"{path}.tau_clamp")
    _expect(0.0 < clamp < 0.5, f"{path}.tau_clamp", "must lie in (0, 0.5)")
    return SamplerSpec(scheme, steps, traj, seed, record_x, clamp)


def _parse_sweep(block: dict, path: str, controller: ControllerSpec) -> SweepSpec:
    _require_keys(block, path, ("parameter", "values"))
    param = block["parameter"]
    _expect(param in SWEEP_PARAMETERS, f"{path}.parameter", f"must be one of {list(SWEEP_PARAMETERS)}")
    keys = CONTROLLERS[controller.type].keys
    _expect(param in keys, f"{path}.parameter", f"{param!r} is not a parameter of controller {controller.type!r}")
    values = block["values"]
    _expect(isinstance(values, list) and values, f"{path}.values", "must be a nonempty list")
    vals = tuple(_as_number(v, f"{path}.values") for v in values)
    for value in vals:  # the bound the key's value would meet in the controller block
        _expect(keys[param].bound(value), f"{path}.values", keys[param].message)
    return SweepSpec(param, vals)


def _parse_output(block: dict, path: str) -> OutputSpec:
    defaults = OutputSpec()
    _require_keys(block, path, (), ("directory", "formats"))
    directory = block.get("directory", defaults.directory)
    _expect(isinstance(directory, str) and directory, f"{path}.directory", "must be a nonempty string")
    return OutputSpec(directory, check_formats(block.get("formats", list(defaults.formats)), f"{path}.formats"))


def check_formats(formats, path: str) -> tuple[str, ...]:
    """A nonempty list of known output formats, in canonical order; the ConfigError names ``path``."""
    _expect(isinstance(formats, list) and formats, path, "must be a nonempty list")
    for fmt in formats:
        _expect(fmt in OUTPUT_FORMATS, path, f"unknown format {fmt!r}")
    return tuple(fmt for fmt in OUTPUT_FORMATS if fmt in formats)


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require_keys(raw, "config", ("system", "controller"), ("sampler", "sweep", "output"))
    system = _parse_system(raw["system"], "system")
    controller = _parse_controller(raw["controller"], "controller")
    sampler = _parse_sampler(raw.get("sampler", {}), "sampler")
    sweep = _parse_sweep(raw["sweep"], "sweep", controller) if "sweep" in raw else None
    output = _parse_output(raw.get("output", {}), "output")
    return ExperimentConfig(system, controller, sampler, sweep, output)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; JSON syntax errors keep line/column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    return config_from_dict(raw)


def _canonical(cfg: ExperimentConfig) -> dict:
    """The config's fields in the shape of its file: a component's cov, the flat controller block, no null sweep."""
    raw = asdict(cfg)
    for comp in raw["system"]["components"]:
        comp["cov"] = {comp.pop("cov_form"): comp.pop("cov_payload")}
    raw["controller"] = {"type": cfg.controller.type, **cfg.controller.params}
    if cfg.sweep is None:
        del raw["sweep"]
    return raw


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical JSON text; parsing it back yields an identical structure."""
    return json.dumps(_canonical(cfg), indent=2, sort_keys=True) + "\n"


def fingerprint(cfg: ExperimentConfig) -> str:
    """Short stable hash of the experiment content (output location excluded)."""
    payload = _canonical(cfg)
    del payload["output"]
    text = json.dumps(payload, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def build_system(spec: SystemSpec) -> FlowSystem:
    components = [
        GaussComponent(c.weight, np.asarray(c.mean, dtype=float), c.cov_matrix())
        for c in spec.components
    ]
    try:
        return FlowSystem(components, {name: list(idx) for name, idx in spec.conditions.items()})
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise ConfigError(f"system: {exc}") from exc


def build_control_law(spec: ControllerSpec) -> ControlLaw:
    """The law a controller block describes; keys left out keep ControlLaw's defaults."""
    controller = CONTROLLERS.get(spec.type)
    if controller is None:
        raise ConfigError(f"controller.type: unknown controller type {spec.type!r}")
    return ControlLaw(spec.type, **{controller.keys[key].field: value for key, value in spec.params.items()})


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, sampler=replace(cfg.sampler, seed=int(seed)))


def with_controller_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    """Copy of the config with one controller parameter replaced (sweep rows)."""
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep.parameter: must be one of {list(SWEEP_PARAMETERS)}")
    params = dict(cfg.controller.params)
    params[parameter] = float(value)
    return replace(cfg, controller=ControllerSpec(cfg.controller.type, params))
