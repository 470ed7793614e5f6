"""Feedback-controlled classifier-free guidance on analytic flow systems."""

from .config import ConfigError, ExperimentConfig, build_control_law, build_system, load_config
from .control_lab import (
    ConvergenceReport,
    CorridorRow,
    PerturbedDynamics,
    corridor_sweep,
    simulate_sliding,
    stability_corridor,
)
from .flow_systems import (
    FlowSystem,
    GaussComponent,
    marginal_velocity,
    mc_velocity_oracle,
    velocity_pair,
)
from .guidance import (
    ControlLaw,
    SlidingState,
    StepContext,
    apg_combine,
    apply_controller,
    cfg_combine,
    cfg_zero_star_combine,
    rectified_cfgpp_combine,
    smc_step,
    weight_schedule,
)
from .metrics import GaussFit, QualityReport, phase_plane, quality_report, w2_gaussian
from .numerics import Rng, spectral_norm
from .sampler import (
    DivergenceError,
    IntegratorSpec,
    RunResult,
    Trace,
    run_batch,
    sample_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ControlLaw",
    "ConvergenceReport",
    "CorridorRow",
    "DivergenceError",
    "ExperimentConfig",
    "FlowSystem",
    "GaussComponent",
    "GaussFit",
    "IntegratorSpec",
    "PerturbedDynamics",
    "QualityReport",
    "Rng",
    "RunResult",
    "SlidingState",
    "StepContext",
    "Trace",
    "apg_combine",
    "apply_controller",
    "build_control_law",
    "build_system",
    "cfg_combine",
    "cfg_zero_star_combine",
    "corridor_sweep",
    "load_config",
    "marginal_velocity",
    "mc_velocity_oracle",
    "phase_plane",
    "quality_report",
    "rectified_cfgpp_combine",
    "run_batch",
    "sample_trajectory",
    "simulate_sliding",
    "smc_step",
    "spectral_norm",
    "stability_corridor",
    "velocity_pair",
    "w2_gaussian",
    "weight_schedule",
]
