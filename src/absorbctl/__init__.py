"""Sampled-data stabilization of nonlinear delayed plants with a compact
absorbing set: inter-sample output prediction, corrected observer, Euler
state prediction across the delay window, and a held delay-free controller,
plus samplers that check the certificates the design rests on.
"""

from .controller import hold_control
from .errors import (ConfigurationError, CoverageError, DegenerateGradientError,
                     InsufficientDataError, NonFiniteError)
from .model import (AssumptionData, InputHistory, PlantModel, SamplingPartition,
                    SimConfig, StateHistory, Trajectory, clamp_input)
from .observer import blend_p, damping_term, observer_correction
from .planar import build_planar_example, check_zeta_bound
from .predictor import euler_predict, predictor_convergence_study
from .rk4 import flow_on_history, integrate_span
from .simulator import (InitialData, TuneResult, fit_decay_rate, generate_partition,
                        pilot_tune, run_summary, simulate_closed_loop, sweep)
from .verification import (CheckReport, SampleSpec, check_absorbing_dissipation,
                           check_corrected_contraction, check_corrected_dissipation,
                           check_growth_bound, check_local_controller,
                           check_observer_contraction, sublevel_box)

__version__ = "0.1.0"

__all__ = [
    "AssumptionData",
    "CheckReport",
    "ConfigurationError",
    "CoverageError",
    "DegenerateGradientError",
    "InitialData",
    "InputHistory",
    "InsufficientDataError",
    "NonFiniteError",
    "PlantModel",
    "SampleSpec",
    "SamplingPartition",
    "SimConfig",
    "StateHistory",
    "Trajectory",
    "TuneResult",
    "blend_p",
    "build_planar_example",
    "check_absorbing_dissipation",
    "check_corrected_contraction",
    "check_corrected_dissipation",
    "check_growth_bound",
    "check_local_controller",
    "check_observer_contraction",
    "check_zeta_bound",
    "clamp_input",
    "damping_term",
    "euler_predict",
    "fit_decay_rate",
    "flow_on_history",
    "generate_partition",
    "hold_control",
    "integrate_span",
    "observer_correction",
    "pilot_tune",
    "predictor_convergence_study",
    "run_summary",
    "simulate_closed_loop",
    "sublevel_box",
    "sweep",
    "__version__",
]
