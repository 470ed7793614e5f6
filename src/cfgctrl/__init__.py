"""Feedback-controlled classifier-free guidance on analytic flow systems.

Each public name is imported from its submodule the first time it is read
(PEP 562). A library process that samples never imports the testbed, and one
that only loads a config and probes the field imports config, flow_systems,
guidance and numerics; the CLI imports every module.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines; a submodule is itself an attribute of the package
_SUBMODULES = {
    "cli": (),
    "config": ("ConfigError", "ExperimentConfig", "build_control_law", "build_system", "load_config"),
    "control_lab": ("ConvergenceReport", "CorridorRow", "PerturbedDynamics", "corridor_sweep", "simulate_sliding",
                    "stability_corridor"),
    "flow_systems": ("FlowSystem", "GaussComponent", "marginal_velocity", "mc_velocity_oracle", "velocity_pair"),
    "guidance": ("ControlLaw", "SlidingState", "StepContext", "apg_combine", "apply_controller", "cfg_combine",
                 "cfg_zero_star_combine", "rectified_cfgpp_combine", "smc_step", "weight_schedule"),
    "metrics": ("GaussFit", "QualityReport", "phase_plane", "quality_report", "w2_gaussian"),
    "numerics": ("Rng", "spectral_norm"),
    "sampler": ("DivergenceError", "IntegratorSpec", "RunResult", "Trace", "run_batch", "sample_trajectory"),
    "svgplot": (),
}
_SOURCE = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = importlib.import_module(f"{__name__}.{module}")
    globals()[name] = value = source if module == name else getattr(source, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
