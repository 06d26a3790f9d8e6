"""Simulator for control-qubit dephasing induced by spectator relaxation.

Engines: closed-form coherence for Ramsey and any pulse train
(`analytic`), exact Lindblad propagation in sector blocks (`model`), and
Monte-Carlo phase-kick trajectories (`trajectory`), plus
randomized-benchmarking channels (`rb`), microscopic master-equation
builders (`derivations`), curve fitting (`fitting`), and a CLI (`cli`).
"""

__version__ = "0.1.0"

from .analytic import (coherence, cpmg_effective, heuristic_rate,
                       phase_bounds, ramsey_trace)
from .config import (ConfigError, ExperimentConfig, config_from_dict,
                     config_to_dict, device_from_dict, load_config,
                     nu_from_4nu_khz)
from .derivations import (BohrTerm, Cluster, DissipativeGenerator,
                          RateMatrix, bohr_spectrum, build_bmpsa, build_cetcg,
                          cetcg_rate, choi_matrix, cluster_bohr,
                          two_qubit_cetcg_reference, two_qubit_coupling,
                          two_qubit_hamiltonian)
from .fitting import FitResult, fit_exponential, fit_rb
from .model import (CoherenceTrace, DeviceModel, LiouvillianBundle,
                    PhysicalityError, PulseSequence, QubitParams,
                    build_cpmg, build_hamiltonian, build_liouvillian,
                    control_coherence, lindblad_trace, parse_spectator_init,
                    propagate, ramsey_initial_state)
from .rb import (CliffordGroup, ConditionalChannel, ForbiddenTransitionError,
                 RBCurve, average_survival, clifford_group,
                 conditional_channel, lambda_analytic, rb_decay_constant,
                 simulate_rb, transition_probability)
from .trajectory import EnsembleSpec, ensemble_coherence, ensemble_trace

__all__ = [
    "__version__",
    "coherence", "cpmg_effective", "heuristic_rate", "phase_bounds",
    "ramsey_trace",
    "ConfigError", "ExperimentConfig", "config_from_dict", "config_to_dict",
    "device_from_dict", "load_config", "nu_from_4nu_khz",
    "BohrTerm", "Cluster", "DissipativeGenerator", "RateMatrix",
    "bohr_spectrum", "build_bmpsa",
    "build_cetcg", "cetcg_rate", "choi_matrix", "cluster_bohr",
    "two_qubit_cetcg_reference", "two_qubit_coupling",
    "two_qubit_hamiltonian",
    "FitResult", "fit_exponential", "fit_rb",
    "CoherenceTrace", "DeviceModel", "LiouvillianBundle", "PhysicalityError",
    "PulseSequence", "QubitParams", "build_cpmg", "build_hamiltonian",
    "build_liouvillian", "control_coherence", "lindblad_trace",
    "parse_spectator_init", "propagate", "ramsey_initial_state",
    "CliffordGroup", "ConditionalChannel", "ForbiddenTransitionError",
    "RBCurve", "average_survival", "clifford_group", "conditional_channel",
    "lambda_analytic", "rb_decay_constant", "simulate_rb",
    "transition_probability",
    "EnsembleSpec", "ensemble_coherence", "ensemble_trace",
]
