"""Predicates and structure theory for algebras of complex matrices.

A :class:`MatrixAlgebra` is a subspace of some M_n certified closed under
the matrix product, together with its structure tensor: the coefficients
c[i, j, k] of each product b_i b_j against the orthonormal basis.  The
commutativity variants, the annihilator and faithfulness tests, the
commutator span, the Jacobson radical's trace form (trace-form kernel, valid
in characteristic zero) and the quotient tables read that tensor as tensor
identities or null spaces instead of multiplying matrices again.  On top sits
the split of a 3-commutative algebra into a unital commutative ideal plus a
nilpotent ideal.  Spans inside an algebra are taken in coefficient space,
with the rank floored at scale 1, so rounding noise is never structure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    adjoints,
    as_matrix,
    contains,
    hs_norm,
    max_projection_residual,
    null_space,
    orthonormalize,
    product_stack,
    row_basis,
)

__all__ = [
    "MatrixAlgebra",
    "NotAnAlgebraError",
    "NotThreeCommutativeError",
    "WedderburnSplit",
    "verify_algebra",
    "verify_algebras",
    "commutation_predicates",
    "is_commutative",
    "is_anticommuting",
    "is_three_commutative",
    "commutator_subspace",
    "annihilators",
    "is_left_faithful",
    "is_right_faithful",
    "is_idempotent_algebra",
    "is_c_faithful",
    "radical",
    "is_nilpotent",
    "quotient_structure",
    "abstract_radical_coeffs",
    "wedderburn_split",
]


class NotAnAlgebraError(ValueError):
    """A span that fails to be closed under the matrix product."""

    def __init__(self, message: str, worst_pair=None, residual: float = 0.0):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.residual = residual


class NotThreeCommutativeError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class MatrixAlgebra:
    """Subspace of M_n closed under the product, with its closure residual.

    ``structure[i, j, k]`` is the coefficient of b_k in b_i b_j against the
    orthonormal basis; every product of basis elements lies within
    ``closure_residual`` (relative) of sum_k structure[i, j, k] b_k.
    """

    space: Subspace
    closure_residual: float
    tol: ToleranceConfig
    structure: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def ambient(self) -> int:
        return self.space.ambient_rows

    @property
    def basis(self) -> tuple:
        return self.space.basis

    @cached_property
    def pair_deviations(self) -> tuple:
        """(commutator, anticommutator) deviations: the max over basis pairs
        of |b_i b_j - b_j b_i| and |b_i b_j + b_j b_i|, each over
        max(1, |b_i b_j|).  Taken once per algebra; they do not depend on a
        tolerance."""
        return tuple(float(dev) for dev in _pair_deviations(self.structure))

    @cached_property
    def _radicals(self) -> dict:
        """The radical per tolerance, filled by :func:`radical`."""
        return {}


def _unit_scaled(mats: list) -> list:
    """Each matrix over its Hilbert-Schmidt norm, taken after its largest
    entry so that the norm neither overflows nor underflows.  A matrix whose
    norm is at most n eps times the largest input's, n the larger side, is
    within the rounding error of a product of such matrices and becomes
    zero."""
    peaks = [np.abs(x).max(initial=0.0) for x in mats]
    units = [x / peak if peak else x for x, peak in zip(mats, peaks)]
    norms = [peak * np.linalg.norm(x) for x, peak in zip(units, peaks)]
    floor = max(mats[0].shape) * np.finfo(float).eps * max(norms) if mats else 0.0
    return [x / np.linalg.norm(x) if norm > floor else 0.0 * x for x, norm in zip(units, norms)]


def verify_algebra(space_or_mats, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """Certify closure under the product, or raise with the worst violating pair.

    Residuals are relative: |p - proj(p)| / max(1, |p|) per product p.  The
    coefficients of the projections are kept as the structure tensor.  Input
    matrices are each scaled to unit Hilbert-Schmidt norm before their span
    is taken, so the rank cutoff does not depend on how their scales spread;
    one whose norm is within rounding error of the largest input's counts
    as zero, so rounding noise does not become structure.  The span is
    certified by :func:`verify_algebras` as a batch of one.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(space_or_mats, Subspace):
        space = space_or_mats
    else:
        space = orthonormalize(_unit_scaled([as_matrix(x) for x in space_or_mats]), tol)
    return verify_algebras([space], tol)[0]


def verify_algebras(spaces, tol: ToleranceConfig | None = None) -> list:
    """:func:`verify_algebra` on spans of one dimension and one square
    ambient, from one stack of every member's pairwise products and one
    projection of it; raises for the first member that is not closed."""
    tol = tol or DEFAULT_TOL
    if any(space.ambient_rows != space.ambient_cols for space in spaces):
        raise ValueError("an algebra needs a square ambient space")
    stack = np.stack([space.stack for space in spaces])
    g, d, n, _ = stack.shape
    prods = product_stack(stack, stack).reshape(g, d * d, n * n)
    basis_flat = stack.reshape(g, d, n * n)
    coeffs = prods @ adjoints(basis_flat)
    res = np.linalg.norm(prods - coeffs @ basis_flat, axis=-1)
    rel = res / np.maximum(1.0, np.linalg.norm(prods, axis=-1))
    worst = rel.max(axis=-1, initial=0.0)
    for i in np.flatnonzero(worst > tol.eq_tol)[:1]:
        pair = divmod(int(np.argmax(rel[i])), d)
        raise NotAnAlgebraError(
            f"span is not closed under the product: basis pair {pair} "
            f"has projection residual {worst[i]:.3e}",
            worst_pair=pair,
            residual=float(worst[i]),
        )
    structures = coeffs.reshape(g, d, d, d)
    return [MatrixAlgebra(space, float(w), tol, c) for space, w, c in zip(spaces, worst, structures)]


def _pair_deviations(structure: np.ndarray) -> tuple:
    """(commutator, anticommutator) deviations of structure tensors stacked
    on leading axes (..., d, d, d): the max over pairs of
    |b_i b_j -+ b_j b_i| / max(1, |b_i b_j|), one per member."""
    scale = np.maximum(1.0, np.linalg.norm(structure, axis=-1))
    swapped = np.swapaxes(structure, -3, -2)
    return tuple(
        (np.linalg.norm(structure + sign * swapped, axis=-1) / scale).max(axis=(-2, -1), initial=0.0)
        for sign in (-1.0, 1.0)
    )


def _three_commutative(structure: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Permutation invariance of every triple product, for structure tensors
    stacked on leading axes (..., d, d, d); one boolean per member."""
    *lead, d, _, _ = structure.shape
    # triple[..., i, j, k] holds the coefficients of b_i b_j b_k
    triple = (structure.reshape(*lead, d * d, d) @ structure.reshape(*lead, d, d * d)).reshape(*lead, d, d, d, d)
    scale = tol.eq_tol * np.maximum(1.0, np.linalg.norm(triple, axis=-1))
    n = len(lead)
    # the five other orders of the three factors, as one stack
    permuted = np.stack([
        triple.transpose(*range(n), *(n + k for k in perm), n + 3)
        for perm in list(itertools.permutations(range(3)))[1:]
    ])
    return (np.linalg.norm(permuted - triple, axis=-1) <= scale).all(axis=(0, -3, -2, -1))


def commutation_predicates(algebras, tol: ToleranceConfig | None = None) -> tuple:
    """(commutative, anticommuting, three_commutative) of algebras of one
    dimension, each a boolean array with one entry per algebra, read from
    their stacked structure tensors."""
    tol = tol or algebras[0].tol
    structure = np.stack([A.structure for A in algebras])
    commutator, anticommutator = _pair_deviations(structure)
    return commutator <= tol.eq_tol, anticommutator <= tol.eq_tol, _three_commutative(structure, tol)


def is_commutative(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    tol = tol or A.tol
    return A.pair_deviations[0] <= tol.eq_tol


def is_anticommuting(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """xy = -yx for all pairs; in particular every element squares to zero."""
    tol = tol or A.tol
    return A.pair_deviations[1] <= tol.eq_tol


def is_three_commutative(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """Every triple product of basis elements is permutation invariant.

    Triple invariance over a spanning set forces permutation invariance of
    all products of length >= 3, because an adjacent transposition always
    sits inside some window of three consecutive factors.
    """
    return bool(_three_commutative(A.structure, tol or A.tol))


def _elements(A: MatrixAlgebra, coeffs) -> np.ndarray:
    """Stack of the elements of A with the given coefficient rows."""
    return np.einsum("ck,kij->cij", coeffs, A.space.stack)


def _rows(coeffs, tol: ToleranceConfig) -> np.ndarray:
    """Orthonormal coefficient rows with the same span; a row has its element's norm."""
    return row_basis(coeffs, tol.eq_tol, min_scale=1.0)


def _span(A: MatrixAlgebra, coeffs, tol: ToleranceConfig) -> Subspace:
    # orthonormal rows over an orthonormal basis give orthonormal matrices
    return Subspace(A.ambient, A.ambient, _elements(A, _rows(coeffs, tol)))


def _products(A: MatrixAlgebra, left, right) -> np.ndarray:
    """Coefficient rows of every product x y, x and y given by coefficient rows."""
    return np.einsum("ai,bj,ijk->abk", left, right, A.structure).reshape(-1, A.dim)


def _kernel(A: MatrixAlgebra, coeffs, side: str, tol: ToleranceConfig) -> np.ndarray:
    """Rows y for which x = sum_a y_a (coeffs[a] . basis) has xA = 0 ("left") or Ax = 0."""
    spec = "ai,imk->amk" if side == "left" else "ai,mik->amk"
    action = np.einsum(spec, coeffs, A.structure).reshape(len(coeffs), A.dim * A.dim)
    return null_space(action.T, tol.eq_tol, min_scale=1.0)


def _commutator_rows(A: MatrixAlgebra, tol: ToleranceConfig) -> np.ndarray:
    c = A.structure
    i, j = np.triu_indices(A.dim, 1)
    return _rows(c[i, j] - c[j, i], tol)


def commutator_subspace(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> Subspace:
    """Span of the commutators b_i b_j - b_j b_i."""
    tol = tol or A.tol
    return _span(A, _commutator_rows(A, tol), tol)


def annihilators(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """(left, right) annihilators: {a in A : aA = 0} and {a in A : Aa = 0}."""
    tol = tol or A.tol
    eye = np.eye(A.dim, dtype=complex)
    return tuple(_span(A, _kernel(A, eye, side, tol), tol) for side in ("left", "right"))


def is_left_faithful(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """No nonzero a in A has aA = 0; only the left kernel is taken."""
    return len(_kernel(A, np.eye(A.dim, dtype=complex), "left", tol or A.tol)) == 0


def is_right_faithful(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """No nonzero a in A has Aa = 0; only the right kernel is taken."""
    return len(_kernel(A, np.eye(A.dim, dtype=complex), "right", tol or A.tol)) == 0


def is_idempotent_algebra(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """True when the span of pairwise products is all of A."""
    tol = tol or A.tol
    return len(_rows(A.structure.reshape(A.dim * A.dim, A.dim), tol)) == A.dim


def is_c_faithful(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> bool:
    """The commutator ideal acts faithfully on A from at least one side."""
    tol = tol or A.tol
    J = _commutator_rows(A, tol)
    return any(len(_kernel(A, J, side, tol)) == 0 for side in ("left", "right"))


def is_nilpotent(A: MatrixAlgebra, coeffs=None, tol: ToleranceConfig | None = None) -> bool:
    """Is the subalgebra of A with these coefficient rows (all of A by default) nilpotent?

    The powers S, S^2, ... are spanned in coefficient space; each is inside
    the one before, so they either reach zero or stop shrinking.
    """
    tol = tol or A.tol
    gens = _rows(np.eye(A.dim, dtype=complex) if coeffs is None else coeffs, tol)
    cur = gens
    while len(cur):
        nxt = _rows(_products(A, cur, gens), tol)
        if len(nxt) >= len(cur):
            return False
        cur = nxt
    return True


def radical(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> Subspace:
    """Jacobson radical via the kernel of the bilinear trace form.

    For a faithfully represented finite dimensional algebra over the complex
    numbers, {x in A : trace(x b) = 0 for all b in A} is the largest
    nilpotent ideal.  The result is cross-checked to be a nilpotent ideal
    whose quotient has zero radical.  It is taken once per algebra and
    tolerance.
    """
    tol = tol or A.tol
    if tol in A._radicals:
        return A._radicals[tol]
    d = A.dim
    if d == 0:
        return A.space
    # trace form tr(b_i b_j) = sum_k c_ijk tr(b_k); x = sum_i y_i b_i is in its kernel iff gram.T @ y = 0
    gram = A.structure @ np.trace(A.space.stack, axis1=1, axis2=2)
    kernel = null_space(gram.T, tol.eq_tol, min_scale=1.0)
    rad = _span(A, kernel, tol)
    stack = A.space.stack
    products = np.concatenate([product_stack(stack, rad.stack), product_stack(rad.stack, stack)])
    if max_projection_residual(rad, products) > tol.eq_tol:
        raise ArithmeticError("radical cross-check failed: trace-form kernel is not an ideal")
    if not is_nilpotent(A, kernel, tol):
        raise ArithmeticError("radical cross-check failed: trace-form kernel is not nilpotent")
    if rad.dim < d:
        _, table = quotient_structure(A, rad, tol)
        if len(abstract_radical_coeffs(table, tol)) != 0:
            raise ArithmeticError("radical cross-check failed: quotient still has a radical")
    A._radicals[tol] = rad
    return rad


def quotient_structure(A: MatrixAlgebra, ideal: Subspace, tol: ToleranceConfig | None = None):
    """Quotient A/ideal as representatives plus a structure-constant table.

    Representatives are an orthonormal basis of the complement of the ideal
    inside A; the table gives the product of two representatives in
    complement coordinates (the ideal component is discarded).
    """
    d = A.dim
    ideal_coeffs = np.einsum("aij,kij->ak", ideal.stack, A.space.stack.conj())
    comp = np.eye(d, dtype=complex) - ideal_coeffs.T @ ideal_coeffs.conj()
    _, s, vh = np.linalg.svd(comp)
    rank = int(np.sum(s > 0.5))  # eigenvalues of a projector are 0 or 1
    R = vh[:rank].conj()  # q_i = sum_k R_ik b_k
    # q_i q_j = sum_kl R_ik R_jl b_k b_l, read back in representative coordinates:
    # R into the first factor, then into the second, then the read-back
    table = (R @ np.tensordot(R, A.structure, axes=1)) @ R.conj().T
    return list(_elements(A, R)), table


def abstract_radical_coeffs(table: np.ndarray, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Radical of an abstract algebra given by structure constants.

    Uses the trace form of left multiplication on the unitization, which is
    a faithful representation, so the same characteristic-zero criterion as
    in :func:`radical` applies.  Returns coefficient vectors.
    """
    tol = tol or DEFAULT_TOL
    m = table.shape[0]
    if m == 0:
        return np.zeros((0, 0), complex)
    # left multiplication on C 1 + span(q_1..q_m); coordinates (1, q_1..q_m)
    left = np.zeros((m, m + 1, m + 1), complex)
    for i in range(m):
        left[i, 1:, 0] = np.eye(m, dtype=complex)[i]  # q_i * 1 = q_i
        left[i, 1:, 1:] = table[i].T  # q_i * q_j in column j
    gram = np.einsum("iab,jba->ij", left, left)
    return null_space(gram.T, tol.eq_tol, min_scale=1.0)


@dataclass(frozen=True, eq=False)
class WedderburnSplit:
    """A = C + K with C a unital commutative ideal and K a nilpotent ideal."""

    radical_only: bool
    unital_part: MatrixAlgebra | None
    nilpotent_part: MatrixAlgebra | None
    idempotent: np.ndarray | None
    residual: float


def _lift_idempotent(e: np.ndarray, tol: ToleranceConfig, max_steps: int = 100) -> np.ndarray:
    for _ in range(max_steps):
        e2 = e @ e
        if hs_norm(e2 - e) <= tol.eq_tol:
            return e
        e = 3.0 * e2 - 2.0 * e2 @ e
    raise ArithmeticError("idempotent lifting did not converge")


def wedderburn_split(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> WedderburnSplit:
    """Split a 3-commutative algebra into unital commutative plus nilpotent ideals.

    Requires 3-commutativity (which makes the lifted idempotent central).
    Returns ``radical_only=True`` when the algebra is nilpotent.
    """
    tol = tol or A.tol
    if not is_three_commutative(A, tol):
        raise NotThreeCommutativeError("the splitting requires a 3-commutative algebra")
    rad = radical(A, tol)
    if rad.dim == A.dim:
        return WedderburnSplit(True, None, None, None, 0.0)
    reps, table = quotient_structure(A, rad, tol)
    m = len(reps)
    # identity of the semisimple quotient: u with u q_i = q_i u = q_i for all i;
    # rows (i, side, n) and columns indexed by u-coefficients
    big = np.stack([table.transpose(1, 2, 0), table.transpose(0, 2, 1)], axis=1).reshape(-1, m)
    target = np.repeat(np.eye(m, dtype=complex), 2, axis=0).ravel()
    u, *_ = np.linalg.lstsq(big, target, rcond=None)
    if hs_norm(big @ u - target) > tol.eq_tol * max(1.0, hs_norm(target)):
        raise ArithmeticError("semisimple quotient has no identity; split aborted")
    seed = sum(c * q for c, q in zip(u, reps))
    f = _lift_idempotent(seed, tol)
    if not contains(A.space, f, tol):
        raise ArithmeticError("lifted idempotent escaped the algebra")

    # rows j of left and right hold the coefficients of f b_j and b_j f
    eye, fc = np.eye(A.dim, dtype=complex), A.space.coeffs(f)[None]
    left, right = _products(A, fc, eye), _products(A, eye, fc)
    c_rows = _rows(left @ right, tol)  # f b_j f
    k_rows = _rows(eye - left, tol)  # b_j - f b_j
    # f is central, and C and K annihilate each other
    cross = np.concatenate([left - right, _products(A, c_rows, k_rows), _products(A, k_rows, c_rows)])
    residual = float(np.linalg.norm(cross, axis=1).max())
    direct = _rows(np.concatenate([c_rows, k_rows]), tol)
    if len(direct) != len(c_rows) + len(k_rows) or len(direct) != A.dim:
        raise ArithmeticError("split does not decompose the algebra as a direct sum")
    if not is_nilpotent(A, k_rows, tol):
        raise ArithmeticError("nilpotent summand fails to be nilpotent")
    C = verify_algebra(_span(A, c_rows, tol), tol)
    K = verify_algebra(_span(A, k_rows, tol), tol)
    return WedderburnSplit(False, C, K, f, residual)
