"""Quantum seal protocol simulator and numerical verification suite."""

from .gentle import GentleInstance, GentleReport, classic_bound, unknown_outcome_bound
from .linalg import CapacityError, matrix_sqrt_psd, trace_norm
from .naive import (AttackResult, ProductState, build_message_states,
                    mean_fidelity_exact, simulate_qubitwise_attack)
from .qubit_seal import (QubitSealFamily, p_dist_lower_numeric, p_dist_lower_paper,
                         z_state)
from .rng import derive_rng
from .seal import (DetectionReport, MessageDetection, SealScheme, evaluate_scheme,
                   load_scheme, monotonicity_check, p_dist_numeric, p_dist_upper_bound,
                   p_nfp_numeric, p_nfp_upper_bound, promise_probability, save_scheme)
from .states import DensityMatrix, Povm, PureState, densify

__version__ = "0.1.0"
