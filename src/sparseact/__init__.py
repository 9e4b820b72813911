"""Sparsely activated one-hidden-layer ReLU networks on the sign hypercube:
constructions, exact Fourier/sensitivity analysis, PAC learners, and
complexity-bound evaluators, all at exhaustively checkable scale.
"""

from .bounds import (
    ClassParams,
    avg_sensitivity_bound,
    degree_for_error,
    halfspace_sensitivity_bound,
    noise_sensitivity_bound,
    rademacher_bound,
    rademacher_conjecture,
    sample_complexity_general,
)
from .constructions import (
    JuntaSpec,
    embed_lift,
    gamma_gated_net,
    index_net,
    junta_to_net,
    parity_lift,
    reference_index,
)
from .errors import CapacityError, InconsistentDataError, NoConsistentListError
from .fourier import (
    CubeFunction,
    Spectrum,
    avg_sensitivity_exact,
    inverse_wht,
    noise_sensitivity_exact,
    noise_sensitivity_mc,
    sensitivity_at,
    tabulate,
    tail_mass,
    wht,
)
from .hypercube import (
    CubePoint,
    affine_blocks,
    sample_bucket_pair,
)
from .learners import (
    Dataset,
    GeneralizedDecisionList,
    ListNode,
    LossReport,
    MonomialModel,
    evaluate_loss,
    fit_decision_list,
    fit_low_degree,
    full_cube_dataset,
    sample_uniform_dataset,
)
from .network import (
    ScaleParams,
    SensitivitySplit,
    SparseNet,
    SparsityReport,
    avg_sensitivity_split,
    rebucket,
    verify_sparsity,
)
from .rademacher_lab import (
    HypothesisPool,
    RademacherEstimate,
    compare_to_bound,
    empirical_rademacher,
    random_sparse_pool,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ClassParams",
    "CubeFunction",
    "CubePoint",
    "Dataset",
    "GeneralizedDecisionList",
    "HypothesisPool",
    "InconsistentDataError",
    "JuntaSpec",
    "ListNode",
    "LossReport",
    "MonomialModel",
    "NoConsistentListError",
    "RademacherEstimate",
    "ScaleParams",
    "SensitivitySplit",
    "SparseNet",
    "SparsityReport",
    "Spectrum",
    "affine_blocks",
    "avg_sensitivity_bound",
    "avg_sensitivity_exact",
    "avg_sensitivity_split",
    "compare_to_bound",
    "degree_for_error",
    "embed_lift",
    "empirical_rademacher",
    "evaluate_loss",
    "fit_decision_list",
    "fit_low_degree",
    "full_cube_dataset",
    "gamma_gated_net",
    "halfspace_sensitivity_bound",
    "index_net",
    "inverse_wht",
    "junta_to_net",
    "noise_sensitivity_bound",
    "noise_sensitivity_exact",
    "noise_sensitivity_mc",
    "parity_lift",
    "rademacher_bound",
    "rademacher_conjecture",
    "random_sparse_pool",
    "rebucket",
    "reference_index",
    "sample_bucket_pair",
    "sample_complexity_general",
    "sample_uniform_dataset",
    "sensitivity_at",
    "tabulate",
    "tail_mass",
    "verify_sparsity",
    "wht",
]
