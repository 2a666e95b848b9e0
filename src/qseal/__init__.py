"""Quantum seal protocol simulator and numerical verification suite."""

from .gentle import (GentleInstance, GentleReport, classic_bound,
                     random_instance, unknown_outcome_bound, verify_instance)
from .linalg import (CapacityError, matrix_sqrt_psd, partial_trace,
                     tensor_product, trace_norm)
from .naive import (AttackResult, ProductState, build_message_states,
                    dense_state, majority_projector_povm, mean_fidelity_exact,
                    simulate_qubitwise_attack, verify_nondisturbing)
from .qubit_seal import (QubitSealFamily, bloch_vector, p_dist_lower_numeric,
                         p_dist_lower_paper, z_state)
from .rng import derive_rng
from .seal import (DetectionReport, MessageDetection, SealScheme,
                   coarse_cheat_state, evaluate_scheme, load_scheme, marginal,
                   monotonicity_check, p_dist_numeric, p_dist_upper_bound,
                   p_nfp_numeric, p_nfp_upper_bound, promise_probability,
                   save_scheme)
from .states import (DensityMatrix, MeasurementOutcome, Povm, PureState,
                     coarse_grain, densify, helstrom_probability,
                     measure_probabilities, standard_implementation,
                     unknown_outcome_state)

__version__ = "0.1.0"
