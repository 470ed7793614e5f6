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
matrix, positive definite). Each spec, and ExperimentConfig across blocks,
applies what JSON can get wrong; the FlowSystem and ControlLaw a spec builds
once, and keeps, apply the value rules. So a spec built in code is refused
as a file is, by a ConfigError that carries the offending field path.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from .checks import ConfigError, _as_int, _as_number, _expect, check_directory, check_seed
from .flow_systems import FlowSystem, GaussComponent
from .guidance import CONTROLLERS, ControlLaw

SWEEP_PARAMETERS = ("w", "lambda", "k")
OUTPUT_FORMATS = ("csv", "json", "svg")
SCHEMES = ("euler", "heun")
_MAX_DIMENSION = int(np.iinfo(np.intp).max)  # numpy's largest array dimension


def _require_keys(block: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    _expect(isinstance(block, dict), path, "must be a JSON object")
    for key in required:
        _expect(key in block, path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in block:
        _expect(key in allowed, f"{path}.{key}", "unknown key")


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


def _check_component(c: ComponentSpec, path: str, dim: int) -> ComponentSpec:
    """The component, each number a float, or the ConfigError naming a field that JSON got wrong."""
    _expect(isinstance(c, ComponentSpec), path, "must be of type ComponentSpec")
    weight = _as_number(c.weight, f"{path}.weight")
    mean, form, payload = c.mean, c.cov_form, c.cov_payload
    _expect(isinstance(mean, (list, tuple)) and len(mean) == dim, f"{path}.mean", f"must be a list of {dim} numbers")
    mean_t = tuple(_as_number(v, f"{path}.mean") for v in mean)
    if form == "diag":
        _expect(isinstance(payload, (list, tuple)) and len(payload) == dim, f"{path}.cov.diag", f"must list {dim} variances")
        return ComponentSpec(weight, mean_t, "diag", tuple(_as_number(v, f"{path}.cov.diag") for v in payload))
    if form == "full_lower":
        _expect(isinstance(payload, (list, tuple)) and len(payload) == dim, f"{path}.cov.full_lower", f"must have {dim} rows")
        rows = []
        for i, row in enumerate(payload):
            _expect(isinstance(row, (list, tuple)) and len(row) == i + 1, f"{path}.cov.full_lower[{i}]", f"row {i} must have {i + 1} entries")
            rows.append(tuple(_as_number(v, f"{path}.cov.full_lower[{i}]") for v in row))
        return ComponentSpec(weight, mean_t, "full_lower", tuple(rows))
    raise ConfigError(f"{path}.cov: unknown covariance form {form!r}")


@dataclass(frozen=True)
class SystemSpec:
    """The system block, each number stored as a float in a tuple; a bad field raises the ConfigError naming it.

    The spec checks what JSON can get wrong, then builds its FlowSystem, which
    applies the mixture's rules, once: ``flow`` is that system, not a field.
    """

    dimension: int
    components: tuple[ComponentSpec, ...]
    conditions: MappingProxyType[str, tuple[int, ...]]  # the FlowSystem's read-only copy of the mapping given
    target: str

    def __post_init__(self):
        dim = _as_int(self.dimension, "system.dimension", 1)
        _expect(isinstance(self.components, (list, tuple)), "system.components", "must be a nonempty list")
        components = tuple(_check_component(c, f"system.components[{i}]", dim) for i, c in enumerate(self.components))
        _expect(isinstance(self.conditions, Mapping) and self.conditions, "system.conditions", "must be a nonempty object")
        conditions: dict[str, tuple[int, ...]] = {}
        for name, subset in self.conditions.items():
            cpath = f"system.conditions.{name}"
            _expect(isinstance(subset, (list, tuple)), cpath, "must be a nonempty list of component indices")
            conditions[name] = tuple(_as_int(v, cpath) for v in subset)
        target = self.target
        _expect(isinstance(target, str) and target in conditions, "system.target", f"references unknown condition {target!r}")
        try:
            flow = FlowSystem([GaussComponent(c.weight, c.mean, c.cov_matrix()) for c in components],
                              conditions)
        except ValueError as exc:  # FlowSystem's message names the field within the block
            raise ConfigError(f"system.{exc}") from None
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "conditions", flow.conditions)
        object.__setattr__(self, "flow", flow)


@dataclass(frozen=True)
class ControllerSpec:
    """The controller block: a control law's type and its keys, each number stored as a float.

    The block's rules hold for a spec built in code as for one parsed from a
    file: a bad type, key or number, or a missing key, raises the ConfigError
    naming ``controller.<key>``. The spec then builds its ControlLaw, which
    applies each key's bound and choices, once: ``law`` is that law, not a
    field. ``params`` is read-only, so no write can skip those rules.
    """

    type: str
    params: MappingProxyType[str, float | str]

    def __post_init__(self):
        kind = self.type
        _expect(isinstance(kind, str) and kind in CONTROLLERS, "controller.type", f"unknown controller type {kind!r}")
        keys = CONTROLLERS[kind].keys
        params: dict[str, float | str] = {}
        for key, value in self.params.items():
            path = f"controller.{key}"
            _expect(key in keys, path, f"not a parameter of controller {kind!r}")
            params[key] = value if keys[key].choices else _as_number(value, path)
        for key, spec in keys.items():
            _expect(key in params or not spec.required, "controller", f"missing required key {key!r}")
        try:  # keys left out keep ControlLaw's defaults
            law = ControlLaw(kind, **{keys[key].field: value for key, value in params.items()})
        except ValueError as exc:  # ControlLaw's message names the key
            raise ConfigError(f"controller.{exc}") from None
        object.__setattr__(self, "params", MappingProxyType(params))
        object.__setattr__(self, "law", law)


@dataclass(frozen=True)
class SamplerSpec:
    """The sampler block: a fixed-step scheme over [tau_clamp, 1 - tau_clamp], its batch size, seed and path record.

    The block's rules hold for a spec built in code as for one parsed from a
    file: a bad field raises the ConfigError naming ``sampler.<field>``.
    """

    scheme: str = "euler"
    steps: int = 64
    trajectories: int = 50
    seed: int = 0
    record_x: bool = False
    tau_clamp: float = 1e-4

    def __post_init__(self):
        _expect(self.scheme in SCHEMES, "sampler.scheme", f"unknown scheme {self.scheme!r}")
        _as_int(self.steps, "sampler.steps", 2, _MAX_DIMENSION)
        _as_int(self.trajectories, "sampler.trajectories", 1, _MAX_DIMENSION)
        check_seed(self.seed, "sampler.seed")
        _expect(isinstance(self.record_x, bool), "sampler.record_x", "must be a boolean")
        clamp = _as_number(self.tau_clamp, "sampler.tau_clamp")
        _expect(0.0 < clamp < 0.5, "sampler.tau_clamp", "must lie in (0, 0.5)")
        # the last Heun corrector's time, tau_grid()[-1] + dtau in the sampler's arithmetic; the flow degenerates at 1
        last = clamp + self.dtau * (self.steps - 1) + self.dtau
        _expect(self.scheme != "heun" or last < 1.0, "sampler.tau_clamp",
                f"too small for heun at {self.steps} steps: the last corrector stage reaches tau = 1")

    @property
    def dtau(self) -> float:
        return (1.0 - 2.0 * self.tau_clamp) / self.steps

    def tau_grid(self) -> np.ndarray:
        """Left endpoints of the integration steps."""
        return self.tau_clamp + self.dtau * np.arange(self.steps)


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple[float, ...]

    def __post_init__(self):
        _expect(self.parameter in SWEEP_PARAMETERS, "sweep.parameter", f"must be one of {list(SWEEP_PARAMETERS)}")
        _expect(isinstance(self.values, (list, tuple)) and self.values, "sweep.values", "must be a nonempty list")
        object.__setattr__(self, "values", tuple(_as_number(v, "sweep.values") for v in self.values))


@dataclass(frozen=True)
class OutputSpec:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        check_directory(self.directory, "output.directory")
        object.__setattr__(self, "formats", check_formats(self.formats, "output.formats"))


def check_formats(formats, path: str) -> tuple[str, ...]:
    """A nonempty list of known output formats, in canonical order; the ConfigError names ``path``."""
    _expect(isinstance(formats, (list, tuple)) and formats, path, "must be a nonempty list")
    for fmt in formats:
        _expect(fmt in OUTPUT_FORMATS, path, f"unknown format {fmt!r}")
    return tuple(fmt for fmt in OUTPUT_FORMATS if fmt in formats)


@dataclass(frozen=True)
class ExperimentConfig:
    """A whole config of specs; a swept key must be a key of the controller's type, and each value meet its bound."""

    system: SystemSpec
    controller: ControllerSpec
    sampler: SamplerSpec = field(default_factory=SamplerSpec)
    sweep: SweepSpec | None = None
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self):
        for name, spec in (("system", SystemSpec), ("controller", ControllerSpec), ("sampler", SamplerSpec),
                           ("sweep", SweepSpec), ("output", OutputSpec)):
            block = getattr(self, name)
            _expect(isinstance(block, spec) or (name == "sweep" and block is None), name,
                    f"must be of type {spec.__name__}")
        if self.sweep is not None:
            param, kind = self.sweep.parameter, self.controller.type
            keys = CONTROLLERS[kind].keys
            _expect(param in keys, "sweep.parameter", f"{param!r} is not a parameter of controller {kind!r}")
            for value in self.sweep.values:  # the bound the key's value would meet in the controller block
                _expect(keys[param].bound(value), "sweep.values", keys[param].message)


def _parse_controller(block: dict) -> ControllerSpec:
    _expect(isinstance(block, dict), "controller", "must be a JSON object")
    _expect("type" in block, "controller", "missing required key 'type'")
    return ControllerSpec(block["type"], {key: value for key, value in block.items() if key != "type"})


def _parse_component(block: dict, path: str) -> ComponentSpec:
    _require_keys(block, path, ("weight", "mean", "cov"))
    cov = block["cov"]
    _expect(isinstance(cov, dict) and len(cov) == 1, f"{path}.cov", "must be {'diag': [...]} or {'full_lower': [[...], ...]}")
    return ComponentSpec(block["weight"], block["mean"], *next(iter(cov.items())))


def _parse_system(block: dict) -> SystemSpec:
    _require_keys(block, "system", tuple(f.name for f in fields(SystemSpec)))
    comps = block["components"]
    if isinstance(comps, list):  # SystemSpec refuses any other value
        comps = [_parse_component(c, f"system.components[{i}]") for i, c in enumerate(comps)]
    return SystemSpec(**{**block, "components": comps})


def _parse_block(spec: type, block: dict, path: str):
    """A block whose keys are the spec's fields, those without a default required."""
    _require_keys(block, path, tuple(f.name for f in fields(spec) if f.default is MISSING), tuple(f.name for f in fields(spec)))
    return spec(**block)


def config_from_dict(raw: dict) -> ExperimentConfig:
    _require_keys(raw, "config", ("system", "controller"), ("sampler", "sweep", "output"))
    system = _parse_system(raw["system"])
    controller = _parse_controller(raw["controller"])
    sampler = _parse_block(SamplerSpec, raw.get("sampler", {}), "sampler")
    sweep = _parse_block(SweepSpec, raw["sweep"], "sweep") if "sweep" in raw else None
    output = _parse_block(OutputSpec, raw.get("output", {}), "output")
    return ExperimentConfig(system, controller, sampler, sweep, output)


def load_config(path: str) -> ExperimentConfig:
    """Parse and validate a config file; JSON syntax errors keep line/column."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:  # nested too deep, or an integer past int's digit limit
        raise ConfigError(f"{path}: cannot parse JSON: {exc}") from exc
    return config_from_dict(raw)


def _canonical(cfg: ExperimentConfig) -> dict:
    """The config's fields in the shape of its file: a component's cov, the flat controller block, no null sweep."""
    system = cfg.system  # written out, as is the controller block: asdict cannot copy a read-only mapping
    raw = {name: asdict(spec) for name in ("sampler", "sweep", "output") if (spec := getattr(cfg, name)) is not None}
    raw["system"] = {"dimension": system.dimension, "conditions": dict(system.conditions), "target": system.target,
                     "components": [{"weight": c.weight, "mean": c.mean, "cov": {c.cov_form: c.cov_payload}}
                                    for c in system.components]}
    raw["controller"] = {"type": cfg.controller.type, **cfg.controller.params}
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
    """The flow a system block describes: the one the spec built."""
    return spec.flow


def build_control_law(spec: ControllerSpec) -> ControlLaw:
    """The law a controller block describes: the one the spec built."""
    return spec.law


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, sampler=replace(cfg.sampler, seed=seed))


def with_controller_value(cfg: ExperimentConfig, parameter: str, value: float) -> ExperimentConfig:
    """Copy of the config with one controller key replaced (sweep rows); ControllerSpec refuses a bad key or value."""
    return replace(cfg, controller=ControllerSpec(cfg.controller.type, {**cfg.controller.params, parameter: value}))
