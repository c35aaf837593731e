"""Ternary rings of operators: generation, block form, envelopes.

A TRO is a subspace W with W W* W inside W.  The TRO generated by X is
built from its linking algebra L, the *-algebra generated by X X*, as
W = X + L X; L = span(W W*) is kept with it.  When X X* already spans
p M p, for p and q the supports of X, one rank count shows W = p M q, and
no closure runs.  Finite dimensional TROs are unitarily equivalent to
direct sums of rectangular matrix blocks; a W that fills p M q is one
block, otherwise the block form is read off from the spectrum of a central
element of L.  Each block is M_(a,b) tensor 1_m, with its multiplicity m
read from ranks and dimensions.  The injective envelope of a subspace X is
W modulo its Shilov ideal, the largest ideal whose quotient map is
completely isometric on X; it is the sum of the blocks whose deletion alone
is completely isometric on X, which is one complete contractivity decision
per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import cb
from .algebra import MatrixAlgebra, verify_algebra
from .linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    Subspace,
    ToleranceConfig,
    adjoints,
    as_matrix,
    basis_and_rank,
    close_span,
    contains,
    hs_norm,
    identity_map,
    max_projection_residual,
    max_relative_gap,
    null_space,
    numerical_rank,
    op_norm,
    orthonormalize,
    product_stack,
    sqrt_psd,
)

__all__ = [
    "TROSpace",
    "BlockStructure",
    "EnvelopeResult",
    "DegenerateDecompositionError",
    "generate_tro",
    "generate_tros",
    "linking_algebra",
    "support_projections",
    "block_decompose",
    "injective_envelope",
    "injective_envelopes",
    "multiplicative_embed",
]


class DegenerateDecompositionError(ArithmeticError):
    """Raised when the blocks found do not fit a direct sum of M_(a,b) tensor 1_m."""


@dataclass(frozen=True, eq=False)
class TROSpace:
    """A TRO W, the subspace it was generated from, and the orthonormal
    columns (left, right) of the supports of W.  The left linking algebra
    span(W W*) is certified product-closed the first time it is read, from
    its *-closed span ``link_span``."""

    space: Subspace
    closure_residual: float
    link_span: Subspace | None = field(repr=False)
    generators: Subspace = field(repr=False)
    supports: tuple | None = field(default=None, repr=False)
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> tuple:
        return self.space.basis

    @property
    def full_corner(self) -> bool:
        """W is all of p M q, for p and q its support projections."""
        left, right = self.supports
        return self.dim == left.shape[1] * right.shape[1]

    @cached_property
    def linking(self) -> MatrixAlgebra:
        return verify_algebra(self.link_span, self.tol)


def _range_columns(stack, tol):
    """Orthonormal columns whose first ``rank`` span the joint column space
    of the stacked matrices (..., k, rows, cols), and that rank, from one
    SVD per member."""
    *lead, k, rows, cols = stack.shape
    joint = np.swapaxes(stack, -3, -2).reshape(*lead, rows, k * cols)
    u, s, _ = np.linalg.svd(joint, full_matrices=False)
    return u, numerical_rank(s, tol.eq_tol)


def _matrix_units(left, right) -> np.ndarray:
    """The orthonormal basis u_a v_b* of p M q, for u_a and v_b the
    orthonormal columns of p and q, stacked (..., a b, rows, cols)."""
    *lead, rows, a = left.shape
    cols, b = right.shape[-2:]
    lt, rt = np.swapaxes(left, -1, -2), np.swapaxes(right.conj(), -1, -2)
    return (lt[..., :, None, :, None] * rt[..., None, :, None, :]).reshape(*lead, a * b, rows, cols)


def generate_tro(space: Subspace, tol: ToleranceConfig | None = None) -> TROSpace:
    """Smallest TRO W containing the subspace X: :func:`generate_tros` as a batch of one."""
    return generate_tros([space], tol)[0]


def generate_tros(spaces, tol: ToleranceConfig | None = None) -> list:
    """Smallest TRO W containing each subspace X, built from its linking
    algebra, for subspaces of one dimension and shape.

    G = span(X X*) lies in p M p, for p and q the support projections of X,
    which are those of W.  The dimension of G and both supports come from
    SVDs stacked over the members.  When dim G = (rank p)^2, G is all of
    p M p, which is then the linking algebra L, and W = L X = p M q: W and L
    are spanned by matrix units in the support columns, built for all such
    members of equal support ranks at once, W is closed exactly (closure
    residual 0), and p x q = x is the check that X lies in W.  Otherwise
    G is *-closed, so the algebra L it generates (the closure of G under
    left multiplication by G) is a *-algebra, and W = X + L X is the span
    of the odd alternating words x1 y1* x2 ... xk, the TRO generated by X.
    Then W W* lies in L and L in span(W W*), so L is kept as the linking
    algebra.  The closure residual is that of L W in W; L is checked
    adjoint-closed, W W* to lie in L (one slice w W* at a time, so the d_W^2
    stack is neither factorized nor held whole) and p W q = W, all by
    projection residuals.  These members are closed one at a time.
    """
    tol = tol or DEFAULT_TOL
    x = np.stack([space.stack for space in spaces])
    g, d, m, n = x.shape
    gens, gens_rank = basis_and_rank(product_stack(x, adjoints(x)).reshape(g, d * d, m * m), tol.eq_tol)
    left, rank_p = _range_columns(x, tol)
    right, rank_q = _range_columns(adjoints(x), tol)
    corner = gens_rank == rank_p**2

    def supports(i):
        return left[i, :, : rank_p[i]], right[i, :, : rank_q[i]]

    out = [None] * g
    for rp, rq in sorted({(int(a), int(b)) for a, b in zip(rank_p[corner], rank_q[corner])}):
        idx = np.flatnonzero(corner & (rank_p == rp) & (rank_q == rq))
        lc, rc = left[idx, :, :rp], right[idx, :, :rq]
        # p M q is closed exactly; X is what must lie in it
        _check_supports(x[idx], lc, rc, tol)
        links, units = _matrix_units(lc, lc), _matrix_units(lc, rc)
        for j, i in enumerate(idx):
            w, link = Subspace(m, n, units[j]), Subspace(m, m, links[j])
            out[i] = TROSpace(w, 0.0, link, spaces[i], supports(i), tol)
    for i in np.flatnonzero(~corner):
        gspan = Subspace(m, m, gens[i, : gens_rank[i]].reshape(-1, m, m))
        out[i] = _closed_tro(spaces[i], gspan, supports(i), tol)
    return out


def _check_supports(held, left, right, tol):
    """p w q = w for the stacked matrices w of each member, p and q the
    projections onto the member's left and right columns."""
    p, q = (np.expand_dims(cols @ adjoints(cols), -3) for cols in (left, right))
    if max_relative_gap(held, p @ held @ q) > 10 * tol.eq_tol:
        raise ArithmeticError("support projections do not reproduce the space")


def _closed_tro(space: Subspace, gens: Subspace, supports, tol) -> TROSpace:
    """The TRO X + L X for L the algebra generated by G = span(X X*)."""
    x = space.stack
    link_space = close_span(gens, lambda cur: product_stack(gens.stack, cur), tol)
    lstack = link_space.stack
    w = orthonormalize(np.concatenate([x, product_stack(lstack, x)]), tol, shape=space.shape)
    worst = max_projection_residual(w, product_stack(lstack, w.stack))
    if max_projection_residual(link_space, adjoints(lstack)) > tol.eq_tol:
        raise ArithmeticError("linking algebra failed to close under adjoints")
    wstar = adjoints(w.stack)
    for wa in w.stack:
        if max_projection_residual(link_space, product_stack(wa[None], wstar)) > tol.eq_tol:
            raise ArithmeticError("linking algebra does not contain W W*")
    _check_supports(w.stack, *supports, tol)  # X lies in W by construction
    return TROSpace(w, worst, link_space, space, supports, tol)


def linking_algebra(space: Subspace, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """The *-algebra generated by the products a b* (acting on the row side)."""
    return generate_tro(space, tol).linking


def support_projections(w: TROSpace):
    """(p, q): projections onto the joint column and row spaces, with p x q = x."""
    left, right = w.supports
    return left @ left.conj().T, right @ right.conj().T


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Rectangular block form of a TRO.

    Block k is M_(a,b) tensor 1_m, with (a, b) in ``blocks`` and m in
    ``multiplicities``; its left and right supports, of ranks a m and b m,
    are the orthogonal projections ``left_projections[k]`` and
    ``right_projections[k]``, and every w is the sum of the p_k w q_k.
    """

    blocks: tuple
    multiplicities: tuple
    left_projections: tuple
    right_projections: tuple


def _block_shape(rows: int, cols: int, dim: int):
    """(a, b, m) of a block M_(a,b) tensor 1_m whose supports have ranks
    rows = a m and cols = b m and whose dimension is a b: m^2 = rows cols / dim."""
    m = math.isqrt(rows * cols // dim) if dim else 0
    if m < 1 or m * m * dim != rows * cols or rows % m or cols % m:
        raise DegenerateDecompositionError(f"supports of ranks {rows}, {cols} do not fit a block of dimension {dim}")
    return rows // m, cols // m, m


def _singular_values(stack, left, right):
    """Singular values of x -> left* x right on the span of an orthonormal stack."""
    return np.linalg.svd((left.conj().T @ stack @ right).reshape(len(stack), -1), compute_uv=False)


def block_decompose(w: TROSpace, tol: ToleranceConfig | None = None, seed: int = 0) -> BlockStructure:
    """Projections onto the supports of the diagonal rectangular blocks of the TRO.

    A TRO that fills p M q, for p and q its supports, is the one block
    M_(rank p, rank q), found without reading the linking algebra.  Every
    other TRO is split by the spectrum of one random Hermitian element of
    the center of its left linking algebra: there must be one nonzero
    eigenspace per dimension of the center, and their projections must sum
    to the left support (a one-dimensional center is a multiple of it).  A
    fresh element is drawn when eigenvalues collide (up to ten retries).
    Each block's eigenvectors are its left columns; the right columns are
    the row space of the block's slice of the TRO, and the slice's rank is
    its dimension a b.  Blocks are ordered by (a, b, m) descending, then by
    the singular values of the generating subspace compressed to the block,
    which unitary conjugation leaves alone, then by first supported row.
    """
    tol = tol or DEFAULT_TOL
    if w.dim == 0:
        return BlockStructure((), (), (), ())
    left, right = w.supports
    p = left @ left.conj().T
    if w.full_corner:
        # p M q is the block M_(rank p, rank q): its linking algebra p M p is simple
        return BlockStructure(((left.shape[1], right.shape[1]),), (1,), (p,), (right @ right.conj().T,))
    # center of the linking algebra: coefficients y with sum_i y_i (c_ijk - c_jik) = 0
    link = w.linking
    c = link.structure
    commutators = (c - c.transpose(1, 0, 2)).reshape(link.dim, -1)
    center_coeffs = null_space(commutators.T, tol.eq_tol, min_scale=1.0)
    center = np.einsum("ck,kij->cij", center_coeffs, link.space.stack)
    r = len(center)
    if r == 0:
        raise ArithmeticError("linking algebra has an empty center")

    rng = np.random.default_rng(seed)
    for _ in range(10):
        mu = rng.uniform(1.0, 2.0, r) + 1j * rng.uniform(-0.5, 0.5, r)
        h = np.einsum("c,cij->ij", mu, center)
        h = (h + h.conj().T) / 2.0  # the center is *-closed, so h stays central
        vals, vecs = np.linalg.eigh(h)
        gap = 1e-6 * max(1.0, float(np.abs(vals).max()))
        groups = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > gap) + 1)  # vals ascend
        left_cols = [vecs[:, g] for g in groups if abs(vals[g].mean()) > gap]
        # r spectral blocks whose projections sum to the left support
        total = sum(cols @ cols.conj().T for cols in left_cols)
        if len(left_cols) == r and hs_norm(total - p) <= 1e-6 * max(1.0, hs_norm(p)):
            break
    else:
        raise DegenerateDecompositionError(f"no center element splits the left support into {r} blocks")

    right_cols = []
    for cols in left_cols:
        u, rank = _range_columns(adjoints(w.space.stack) @ cols, tol)
        right_cols.append(u[:, :rank])
    shapes, keys = [], []
    for lc, rc in zip(left_cols, right_cols):
        dim = numerical_rank(_singular_values(w.space.stack, lc, rc), tol.eq_tol, 1.0)
        a, b, mult = _block_shape(lc.shape[1], rc.shape[1], dim)
        invariant = np.round(_singular_values(w.generators.stack, lc, rc), 9)
        first_row = int(np.argmax(np.sum(np.abs(lc) ** 2, axis=1) > 0.5))
        shapes.append((a, b, mult))
        keys.append((-a, -b, -mult, *invariant, first_row))
    order = sorted(range(r), key=keys.__getitem__)
    left_cols, right_cols, shapes = ([seq[k] for k in order] for seq in (left_cols, right_cols, shapes))
    if sum(rc.shape[1] for rc in right_cols) != right.shape[1]:
        raise DegenerateDecompositionError("the blocks' right supports do not fill the right support")

    lps = tuple(lc @ lc.conj().T for lc in left_cols)
    rps = tuple(rc @ rc.conj().T for rc in right_cols)
    # off-block mass must vanish: W is the sum of its (a m, b m) blocks
    blockwise = sum(pk @ w.space.stack @ qk for pk, qk in zip(lps, rps))
    if np.abs(w.space.stack - blockwise).max() > 1e-7:
        raise DegenerateDecompositionError("the space is not supported on its blocks")
    return BlockStructure(tuple((a, b) for a, b, _ in shapes), tuple(mult for *_, mult in shapes), lps, rps)


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """The injective envelope of a subspace X: the compression of its
    generated TRO to the blocks not in ``deleted_blocks``, with that
    compression on X as the embedding.  EXACT: every deletion map was
    decided completely contractive or not, so this is the envelope.
    CANDIDATE: one came back UNDECIDED; a block whose own map is undecided is
    kept, and an undecided confirming map leaves the deletion uncertified."""

    envelope: TROSpace
    status: str  # "EXACT" | "CANDIDATE"
    deleted_blocks: tuple
    embedding: LinearMapOnSubspace
    blocks: BlockStructure


def _compression(space: Subspace, bs: BlockStructure, kept) -> LinearMapOnSubspace:
    """The map x -> p x q on the space, for p and q the supports of the kept blocks."""
    p = sum(bs.left_projections[k] for k in kept)
    q = sum(bs.right_projections[k] for k in kept)
    return LinearMapOnSubspace(space, p @ space.stack @ q, space.shape)


def _deletion_map(space: Subspace, bs: BlockStructure, kept, deleted, tol: ToleranceConfig):
    """x_kept -> x_deleted on X, x compressed to the kept and to the deleted blocks; None if the
    first loses rank.  For U S Vh the SVD of the kept compressions of X's basis, flattened, the
    domain basis is the rows of Vh and the images are (U / S)* times the deleted compressions."""
    d, shape = space.dim, space.shape
    u, s, vh = np.linalg.svd(_compression(space, bs, kept).image_stack.reshape(d, -1), full_matrices=False)
    if numerical_rank(s, tol.eq_tol, 1.0) < d:
        return None
    images = (u / s).conj().T @ _compression(space, bs, deleted).image_stack.reshape(d, -1)
    return LinearMapOnSubspace(Subspace(*shape, vh.reshape(d, *shape)), images.reshape(d, *shape), shape)


def injective_envelope(
    space: Subspace, tol: ToleranceConfig | None = None, seed: int = 0
) -> EnvelopeResult:
    """The injective envelope of X: :func:`injective_envelopes` as a batch of one."""
    return injective_envelopes([space], tol, seed)[0]


def injective_envelopes(spaces, tol: ToleranceConfig | None = None, seed: int = 0) -> list:
    """The generated TRO W modulo its Shilov ideal J, for each of some
    subspaces X of one dimension and shape, whose TROs
    :func:`generate_tros` generates together.

    J is the largest ideal of W whose quotient map is completely isometric
    on X (Hamana, Math. J. Toyama Univ. 1999).  An ideal is a sum of blocks.
    Compressing to some blocks is a ternary morphism, and a direct sum takes
    the largest block norm at every level, so deleting blocks is completely
    isometric on X exactly when `_deletion_map` exists and is completely
    contractive.  J holds the blocks that pass alone; two or more get one
    confirming decision together, which must not fail.  A TRO that fills
    p M q is one block, so it is its own envelope.
    """
    tol = tol or DEFAULT_TOL
    return [_envelope(space, w, tol, seed) for space, w in zip(spaces, generate_tros(spaces, tol))]


def _envelope(space: Subspace, w: TROSpace, tol: ToleranceConfig, seed: int) -> EnvelopeResult:
    """The envelope of X from its generated TRO W."""
    bs = block_decompose(w, tol, seed)
    r = len(bs.blocks)

    def decide(kept, deleted):
        psi = _deletion_map(space, bs, kept, deleted, tol)  # None: the deletion kills part of X
        return None if psi is None else cb.is_completely_contractive(psi, tol, seed).status

    outcomes = [decide([j for j in range(r) if j != k], [k]) for k in range(r)] if r > 1 else []
    deleted = [k for k, outcome in enumerate(outcomes) if outcome == cb.FEASIBLE]
    status = "CANDIDATE" if cb.UNDECIDED in outcomes else "EXACT"
    if not deleted:
        return EnvelopeResult(w, status, (), identity_map(space), bs)
    kept = [k for k in range(r) if k not in deleted]
    if len(deleted) > 1:
        outcome = decide(kept, deleted)
        if outcome in (None, cb.INFEASIBLE):
            raise DegenerateDecompositionError(f"deleting blocks {deleted} together is not completely isometric")
        status = "CANDIDATE" if outcome == cb.UNDECIDED else status
    envelope = generate_tro(orthonormalize(_compression(w.space, bs, kept).image_stack, tol, shape=space.shape), tol)
    return EnvelopeResult(envelope, status, tuple(deleted), _compression(space, bs, kept), bs)


def multiplicative_embed(
    z_space: TROSpace, z, tol: ToleranceConfig | None = None
) -> LinearMapOnSubspace:
    """Embed a TRO so the pairing x z* y becomes the ambient matrix product.

    The image of x is the 2x2 block matrix [[x z*, x (1 - z* z)^(1/2)], [0, 0]].
    This is a ternary morphism, and products of images realize x z* y.
    """
    tol = tol or DEFAULT_TOL
    z = as_matrix(z)
    if not contains(z_space.space, z, tol):
        raise ValueError("pairing element must lie in the TRO")
    if op_norm(z) > 1.0 + tol.eq_tol:
        raise ValueError("pairing element must be a contraction")
    m, n = z_space.space.shape
    defect = sqrt_psd(np.eye(n) - z.conj().T @ z, tol)

    basis = z_space.space.stack
    ims = np.zeros((len(basis), m + n, m + n), complex)
    ims[:, :m, :m], ims[:, :m, m:] = basis @ z.conj().T, basis @ defect
    phi = LinearMapOnSubspace(z_space.space, ims, (m + n, m + n))
    # phi(proj(s)) is vec(s) @ lift: the coefficients of s against the basis, then the images
    lift = basis.reshape(len(basis), m * n).conj().T @ ims.reshape(len(ims), (m + n) ** 2)

    def fails(got, preimages):
        return max_relative_gap(got, (preimages.reshape(-1, m * n) @ lift).reshape(got.shape)) > 1e-6

    # multiplicativity against the pairing, phi(x) phi(y) = phi(x z* y), on basis pairs
    if fails(product_stack(ims, ims), product_stack(basis @ z.conj().T, basis)):
        raise ArithmeticError("embedding failed to be multiplicative")
    # ternary morphism, phi(x) phi(v)* phi(y) = phi(x v* y), on basis triples, one x at a time
    for x, im in zip(basis, ims):
        if fails(product_stack(im @ adjoints(ims), ims), product_stack(x @ adjoints(basis), basis)):
            raise ArithmeticError("embedding failed to be a ternary morphism")
    return phi
