"""Structured prediction by estimated conditional risk minimization.

Train a kernel ridge estimate of the conditional risk of every candidate
output, then predict by minimizing that estimate over a structured output
space: label hierarchies (exact, via max-weight closure), rankings (exact,
via min-cost assignment), network-flow polytopes (min-norm-point projection
to a Frank-Wolfe gap, and projected subgradient), or explicit finite sets
(enumeration).
"""

from .additive import AdditiveModel, JointKernelSpec, additive_risk, fit_additive, infer_additive
from .analysis import (BoundInputs, SurrogateConfig, empirical_surrogate_risk,
                       generalization_bound, generalization_bound_terms,
                       make_surrogate_config, realized_loss, surrogate_loss,
                       surrogate_loss_detailed)
from .assignment import assignment_cost, solve_assignment
from .baselines import knn_local_risk_predict
from .closure import solve_hierarchy
from .errors import DataFormatError, EcrmError, NumericalError
from .flow_opt import enumerate_st_paths, solve_flow_abs_batch, solve_flow_sq_batch
from .hierarchy import HierarchyDag
from .inference import infer, infer_batch, infer_from_weights
from .io import load_model, save_additive_model, save_model
from .kernels import KernelSpec, eval_kernel, gram_matrix
from .losses import (LossSpec, additive_coefficients, footrule, hamming,
                     hierarchical_loss, hierarchical_loss_closed, loss_bound,
                     loss_value, sibling_weights, vector_loss)
from .model import TrainedModel, estimate_conditional_risk, fit, weights
from .results import Certificate, InferenceResult, SolverParams
from .simulate import (Dataset, FlowGeneratorSpec, default_flow_network, sample_conditional,
                       simulate_flow_data)
from .spaces import (FlowNetwork, OutputSpace, assignment_constraint_matrix,
                     assignment_space, explicit_space, flow_space,
                     hierarchy_constraint_matrix, hierarchy_space, is_totally_unimodular)

__version__ = "0.1.0"
