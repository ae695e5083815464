"""Operator-frame quantum tomography toolkit for spin systems."""

from .estimator import (
    DualCoefficientError,
    RunStats,
    continuous_exact_value,
    continuous_kernel,
    discrete_exact_value,
    estimate_continuous,
    estimate_discrete,
    estimate_weigert,
    state_expectation,
    weigert_exact_value,
)
from .frames import (
    DualFrame,
    IncompleteQuorumError,
    Quorum,
    SingularGramError,
    SpanningReport,
    completeness_check,
    dual_via_gram_inverse,
    dual_via_gram_schmidt,
    gram_schmidt_basis,
    reproducing_kernel_residual,
    verify_spanning_definitions,
)
from .liouville import (
    DimensionMismatchError,
    NotHermitianError,
    as_operator,
    eig_hermitian,
    hs_inner,
    hs_norm,
    op_exp,
    random_density,
    random_hermitian,
    random_operator,
    superop_from_frame,
)
from .spin import (
    Direction,
    SpinState,
    SpinSystem,
    WeigertQuorum,
    basis_state,
    coherent_state,
    haar_volume,
    make_spin_system,
    max_spin_projector,
    pauli_matrices,
    pauli_quorum,
    random_directions,
    rotation_d,
    su2_orthogonality_residual,
    tetrahedral_directions,
    weigert_quorum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
