"""Ternary rings of operators: generation, block form, envelopes.

A TRO is a subspace W with W W* W inside W.  The TRO generated by X lies
in p M q, for p and q the supports of X.  When X X* already spans p M p,
one rank count shows W = p M q.  Otherwise W is read off the commutant C
of the Hermitian dilations [[0, y], [y*, 0]] of X compressed to its
supports, with the grading: by the bicommutant theorem C' is the algebra
they generate, and its off-diagonal corner, the span of the odd words
x1 x2* x3 ..., is W.  These conditions are linear in X: C and W are each
one intertwiner null space (`linalg.intertwiners`).  Finite
dimensional TROs are unitarily equivalent to direct sums of rectangular
blocks M_(a,b) tensor 1_m; a W that fills p M q is one block, otherwise
one random element of the center of C takes one value on each block, so
its eigenspaces give the blocks' supports, and m is read from ranks and
dimensions.  The injective envelope of a subspace X is W modulo its Shilov
ideal, the largest ideal whose quotient map is completely isometric on X;
it is the sum of the blocks whose deletion alone is completely isometric
on X, which is one complete contractivity decision per block, or one
least operator norm per deleted block when each is 1 x 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    contains,
    hs_norm,
    identity_map,
    intertwiners,
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
    columns (left, right) of the supports of W.  ``center`` is a basis of
    the center of the commutant that W was read from (see
    :func:`generate_tros`), in the support coordinates; it is None for a
    full corner, which reads no commutant."""

    space: Subspace
    closure_residual: float
    center: np.ndarray | None = field(repr=False)
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
    """Smallest TRO W containing each subspace X, for subspaces of one
    dimension and shape.

    W lies in p M q, for p and q the support projections of X, which are
    those of W.  The dimension of G = span(X X*) and both supports come from
    SVDs stacked over the members.  When dim G = (rank p)^2, G is all of
    p M p and W = p M q: W is spanned by matrix units in the support
    columns, built for all such members of equal support ranks at once, W
    is closed exactly (closure residual 0), and p x q = x is the check that
    X lies in W.  Every other member is read off a commutant, one at a
    time, by :func:`_commutant_tro`, whose conditions are linear in X.
    """
    tol = tol or DEFAULT_TOL
    x = np.stack([space.stack for space in spaces])
    g, d, m, n = x.shape
    gens = np.linalg.svd(product_stack(x, adjoints(x)).reshape(g, d * d, m * m), compute_uv=False)
    left, rank_p = _range_columns(x, tol)
    right, rank_q = _range_columns(adjoints(x), tol)
    corner = numerical_rank(gens, tol.eq_tol) == rank_p**2

    def supports(i):
        return left[i, :, : rank_p[i]], right[i, :, : rank_q[i]]

    out = [None] * g
    for rp, rq in sorted({(int(a), int(b)) for a, b in zip(rank_p[corner], rank_q[corner])}):
        idx = np.flatnonzero(corner & (rank_p == rp) & (rank_q == rq))
        lc, rc = left[idx, :, :rp], right[idx, :, :rq]
        # p M q is closed exactly; X is what must lie in it
        _check_supports(x[idx], lc, rc, tol)
        units = _matrix_units(lc, rc)
        for j, i in enumerate(idx):
            out[i] = TROSpace(Subspace(m, n, units[j]), 0.0, None, spaces[i], supports(i), tol)
    for i in np.flatnonzero(~corner):
        out[i] = _commutant_tro(spaces[i], supports(i), tol)
    return out


def _check_supports(held, left, right, tol):
    """p w q = w for the stacked matrices w of each member, p and q the
    projections onto the member's left and right columns."""
    p, q = (np.expand_dims(cols @ adjoints(cols), -3) for cols in (left, right))
    if max_relative_gap(held, p @ held @ q) > 10 * tol.eq_tol:
        raise ArithmeticError("support projections do not reproduce the space")


def _commutant_tro(space: Subspace, supports, tol) -> TROSpace:
    """The TRO generated by X, read off the commutant of its dilations.

    For U and V the support columns, of ranks a and b, X compressed is
    y = U* x V, with dilation h(y) = [[0, y], [y*, 0]] in M_(a+b).  The
    commutant C of the dilations and the grading diag(1, -1) is the
    intertwiners diag(S, T) of y with itself.  By the bicommutant theorem, C'
    is the algebra generated by the dilations and the grading, and its
    upper-right corner, {w : S w = w T for (S, T) in C}, the intertwiners
    (w, w) of C's T-parts with its S-parts (C holds 1), is the span of the
    odd words y1 y2* y3 ..., the TRO generated by the y; W is U w V*.  Its
    closure residual is max |S w - w T| over the bases.  The center of C,
    the null space of c -> [c, c_i] in C's coordinates, is kept for
    :func:`block_decompose`.
    """
    left, right = supports
    a = left.shape[1]
    y = adjoints(left) @ space.stack @ right
    s_parts, t_parts = intertwiners(y, y, tol)
    ws = sum(intertwiners(t_parts, s_parts, tol)) / np.sqrt(2.0)  # the pairs (w, w) are orthonormal
    gaps = s_parts[:, None] @ ws - ws @ t_parts[:, None]
    residual = np.linalg.norm(gaps, axis=(-2, -1)).max(initial=0.0)
    if residual > 10 * tol.eq_tol:
        raise ArithmeticError(f"the TRO commutes with the commutant only to {residual:.3e}")
    w = Subspace(*space.shape, left @ ws @ adjoints(right))
    if max_projection_residual(w, space.stack) > 10 * tol.eq_tol:
        raise ArithmeticError("the space does not lie in the TRO read off its commutant")
    _check_supports(space.stack, left, right, tol)
    c = np.zeros((len(s_parts), a + right.shape[1], a + right.shape[1]), complex)
    c[:, :a, :a], c[:, a:, a:] = s_parts, t_parts
    products = product_stack(c, c).reshape(len(c), len(c), -1)  # [j, i] = c_j c_i
    brackets = (products - products.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(-1, len(c))
    center = np.tensordot(null_space(brackets, tol.eq_tol, min_scale=1.0), c, 1)
    return TROSpace(w, float(residual), center, space, supports, tol)


def linking_algebra(space: Subspace, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """The left linking algebra span(W W*) of the TRO W generated by the space."""
    tol = tol or DEFAULT_TOL
    w, m = generate_tro(space, tol).space.stack, space.ambient_rows
    return verify_algebra(orthonormalize(product_stack(w, adjoints(w)), tol, shape=(m, m)), tol)


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
    M_(rank p, rank q).  Every other TRO is split by one random Hermitian
    element diag(S, T) of the center of the commutant it was read from
    (:func:`_commutant_tro`), which takes one value on both supports of
    each block: S and T must each have one eigenspace per dimension of the
    center, paired by equal eigenvalues, and these give each block's left
    and right columns.  A fresh element is drawn when eigenvalues collide
    (up to ten retries).  The rank of the TRO's slice on a block's columns
    is its dimension a b.  Blocks are ordered by (a, b, m) descending, then
    by the singular values of the generating subspace compressed to the
    block, which unitary conjugation leaves alone, then by the rounded row
    masses of the block's left support (more mass on the first row where
    two blocks differ comes first), so the order never follows the random
    element.
    """
    tol = tol or DEFAULT_TOL
    if w.dim == 0:
        return BlockStructure((), (), (), ())
    left, right = w.supports
    rank_p, rank_q = left.shape[1], right.shape[1]
    if w.full_corner:
        return BlockStructure(((rank_p, rank_q),), (1,), (left @ left.conj().T,), (right @ right.conj().T,))
    r = len(w.center)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        mu = rng.uniform(1.0, 2.0, r) + 1j * rng.uniform(-0.5, 0.5, r)
        h = np.einsum("c,cij->ij", mu, w.center)
        h = (h + h.conj().T) / 2.0  # the center is *-closed, so h stays central
        gap = 1e-6 * max(1.0, hs_norm(h))
        sides = []
        for cols, part in ((left, h[:rank_p, :rank_p]), (right, h[rank_p:, rank_p:])):
            vals, vecs = np.linalg.eigh(part)
            groups = np.split(np.arange(len(vals)), np.flatnonzero(np.diff(vals) > gap) + 1)  # vals ascend
            sides.append(([vals[g].mean() for g in groups], [cols @ vecs[:, g] for g in groups]))
        (left_vals, left_cols), (right_vals, right_cols) = sides
        # r values, each taken on the left and on the right support of one block
        if len(left_vals) == len(right_vals) == r and np.allclose(left_vals, right_vals, rtol=0.0, atol=gap):
            break
    else:
        raise DegenerateDecompositionError(f"no center element splits the supports into {r} blocks")

    shapes, keys = [], []
    for lc, rc in zip(left_cols, right_cols):
        dim = numerical_rank(_singular_values(w.space.stack, lc, rc), tol.eq_tol, 1.0)
        a, b, mult = _block_shape(lc.shape[1], rc.shape[1], dim)
        invariant = np.round(_singular_values(w.generators.stack, lc, rc), 9)
        row_mass = np.round(np.sum(np.abs(lc) ** 2, axis=1), 6)
        shapes.append((a, b, mult))
        keys.append((-a, -b, -mult, *invariant, *-row_mass))
    order = sorted(range(r), key=keys.__getitem__)
    left_cols, right_cols, shapes = ([seq[k] for k in order] for seq in (left_cols, right_cols, shapes))
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


def _decide_deletion(space: Subspace, bs: BlockStructure, kept, deleted, tol: ToleranceConfig, seed: int):
    """Whether deleting some blocks is completely isometric on X: None when the deletion kills
    part of X, otherwise the status of `_deletion_map` psi's complete contractivity.

    Into 1 x 1 blocks, the images p psi(b_k) q on the block with supports (p, q) span one line
    f(b_k) V with ||V|| = 1, read off one SVD (a second direction raises), and
    ||f|| = 1 / min{||x|| : f(x) = 1} is bracketed by `cb.min_opnorm_affine`: INFEASIBLE when an
    upper bound gives ||f|| > 1 + sdp_tol (its argmin x has f(x) = 1 > ||x||), FEASIBLE when
    every lower bound gives ||f|| <= 1 + sdp_tol, UNDECIDED otherwise.  f = 0 passes.
    """
    psi = _deletion_map(space, bs, kept, deleted, tol)
    if psi is None or any(bs.blocks[k] != (1, 1) for k in deleted):
        return None if psi is None else cb.is_completely_contractive(psi, tol, seed).status
    stack, bound, status = psi.domain.stack, 1.0 / (1.0 + tol.sdp_tol), cb.FEASIBLE
    for k in deleted:
        images = bs.left_projections[k] @ psi.image_stack @ bs.right_projections[k]
        u, s, vh = np.linalg.svd(images.reshape(space.dim, -1), full_matrices=False)
        rank = numerical_rank(s, tol.eq_tol, 1.0)
        if rank > 1:
            raise DegenerateDecompositionError(f"1 x 1 block {k} holds images of rank {rank}")
        if rank == 0:
            continue
        a = u[:, 0] * s[0] * op_norm(vh[0].reshape(space.shape))  # f(b_k)
        # f(sum c_k b_k) = sum c_k a_k vanishes on c = conj(u_j), j >= 1, the complement of a
        normals = np.einsum("kj,kab->jab", u[:, 1:].conj(), stack)
        point = np.einsum("k,kab->ab", a.conj(), stack) / np.vdot(a, a).real
        res = cb.min_opnorm_affine(cb.AffineMatrixSet(point, (*normals, *(1j * normals)), 0.0), tol)
        if res.min_norm < bound:
            return cb.INFEASIBLE
        if res.lower < bound:
            status = cb.UNDECIDED
    return status


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
    contractive.  Into 1 x 1 blocks its values commute, so its cb norm is
    its norm (Paulsen, Completely bounded maps and operator algebras, 2002,
    ch. 3), the largest norm of its functionals on the blocks.  J holds the
    blocks that pass alone; two or more get one confirming decision
    together, which must not fail.  A TRO that fills p M q is one block, so
    it is its own envelope.
    """
    tol = tol or DEFAULT_TOL
    return [_envelope(space, w, tol, seed) for space, w in zip(spaces, generate_tros(spaces, tol))]


def _envelope(space: Subspace, w: TROSpace, tol: ToleranceConfig, seed: int) -> EnvelopeResult:
    """The envelope of X from its generated TRO W."""
    bs = block_decompose(w, tol, seed)
    r = len(bs.blocks)
    others = [[j for j in range(r) if j != k] for k in range(r)] if r > 1 else []
    outcomes = [_decide_deletion(space, bs, kept, [k], tol, seed) for k, kept in enumerate(others)]
    deleted = [k for k, outcome in enumerate(outcomes) if outcome == cb.FEASIBLE]
    status = "CANDIDATE" if cb.UNDECIDED in outcomes else "EXACT"
    if not deleted:
        return EnvelopeResult(w, status, (), identity_map(space), bs)
    kept = [k for k in range(r) if k not in deleted]
    if len(deleted) > 1:
        outcome = _decide_deletion(space, bs, kept, deleted, tol, seed)
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
