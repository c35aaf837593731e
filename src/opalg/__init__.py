"""Toolkit for finite dimensional matrix operator algebras.

Analyzes spans of complex matrices: verifies algebra closure, decides
commutativity variants, computes ternary envelopes and pairing elements,
certifies complete contractivity and symmetry, and triangularizes.
"""

from .algebra import (
    MatrixAlgebra,
    NotAnAlgebraError,
    NotThreeCommutativeError,
    WedderburnSplit,
    annihilators,
    commutator_subspace,
    is_anticommuting,
    is_c_faithful,
    is_commutative,
    is_idempotent_algebra,
    is_left_faithful,
    is_right_faithful,
    is_three_commutative,
    radical,
    verify_algebra,
    wedderburn_split,
)
from .cb import (
    FEASIBLE,
    INFEASIBLE,
    UNDECIDED,
    AffineMatrixSet,
    FeasibilityOutcome,
    MinNormResult,
    is_complete_isometry,
    is_completely_contractive,
    is_symmetric_space,
    min_opnorm_affine,
)
from .linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    Subspace,
    ToleranceConfig,
    contains,
    hs_inner,
    hs_norm,
    op_norm,
    orthonormalize,
    sqrt_psd,
)
from .report import AnalysisReport, analyze_algebra
from .reversibility import (
    PairingSolution,
    Pairings,
    ReversibilityVerdict,
    certify_reversal_element,
    decide_reversible,
    pairing_consistency,
    solve_pairing,
)
from .structure import (
    TriangularizationResult,
    common_eigenvector,
    nilpotent_part_strict,
    triangularize,
)
from .tro import (
    BlockStructure,
    EnvelopeResult,
    TROSpace,
    block_decompose,
    generate_tro,
    injective_envelope,
    linking_algebra,
    multiplicative_embed,
    support_projections,
)

__version__ = "0.1.0"
