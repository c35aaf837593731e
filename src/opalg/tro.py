"""Ternary rings of operators: generation, block form, envelopes.

A TRO is a subspace W with W W* W inside W.  The TRO generated by X is
built from its linking algebra L, the *-algebra generated by X X*, as
W = X + L X; L = span(W W*) is kept with it.  Finite dimensional TROs are
unitarily equivalent to direct sums of rectangular matrix blocks; the block
form is read off from the center of L, and a one-dimensional center means a
single block spanned by the supports of W.  The injective envelope of a
subspace is its generated TRO whenever that TRO is simple; otherwise
candidates are produced by deleting blocks and certifying that the
compression still embeds the input completely isometrically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import cb
from .algebra import MatrixAlgebra, verify_algebra
from .linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    Subspace,
    ToleranceConfig,
    as_matrix,
    close_span,
    contains,
    hs_norm,
    identity_map,
    max_projection_residual,
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
    "linking_algebra",
    "support_projections",
    "block_decompose",
    "is_simple_tro",
    "injective_envelope",
    "multiplicative_embed",
]


class DegenerateDecompositionError(ArithmeticError):
    """Raised when repeated random center samples fail to separate blocks."""


@dataclass(frozen=True, eq=False)
class TROSpace:
    """A TRO W with its left linking algebra span(W W*), verified *-closed."""

    space: Subspace
    closure_residual: float
    linking: MatrixAlgebra = field(repr=False)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def basis(self) -> tuple:
        return self.space.basis


def _adjoints(stack: np.ndarray) -> np.ndarray:
    return stack.conj().transpose(0, 2, 1)


def generate_tro(space: Subspace, tol: ToleranceConfig | None = None) -> TROSpace:
    """Smallest TRO W containing the subspace X, built from its linking algebra.

    G = span(X X*) is *-closed, so the algebra L it generates (the closure of
    G under left multiplication by G) is a *-algebra, and W = X + L X is the
    span of the odd alternating words x1 y1* x2 ... xk, the TRO generated by
    X.  Then W W* lies in L and L in span(W W*), so L is kept as the linking
    algebra.  The closure residual is that of L W in W; L is certified
    product- and adjoint-closed and W W* is checked to lie in L, all by
    projection residuals, without factorizing the d_W^2 stack W W*.
    """
    tol = tol or DEFAULT_TOL
    x = space.stack
    gens = orthonormalize(product_stack(x, _adjoints(x)), tol, shape=(space.ambient_rows,) * 2)
    link_space = close_span(gens, lambda cur: product_stack(gens.stack, cur), tol)
    lstack = link_space.stack
    w = orthonormalize(np.concatenate([x, product_stack(lstack, x)]), tol, shape=space.shape)
    worst = max_projection_residual(w, product_stack(lstack, w.stack))
    link = verify_algebra(link_space, tol)
    if max_projection_residual(link_space, _adjoints(lstack)) > tol.eq_tol:
        raise ArithmeticError("linking algebra failed to close under adjoints")
    if max_projection_residual(link_space, product_stack(w.stack, _adjoints(w.stack))) > tol.eq_tol:
        raise ArithmeticError("linking algebra does not contain W W*")
    return TROSpace(w, worst, link)


def linking_algebra(space: Subspace, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """The *-algebra generated by the products a b* (acting on the row side)."""
    return generate_tro(space, tol).linking


def _range_columns(columns, tol):
    """Orthonormal columns spanning the joint column space of the matrices,
    and orthonormal columns spanning its orthogonal complement, from one SVD."""
    stacked = np.hstack(columns)
    u, s, _ = np.linalg.svd(stacked, full_matrices=stacked.shape[1] < stacked.shape[0])
    rank = numerical_rank(s, tol.eq_tol)
    return u[:, :rank], u[:, rank:]


def _support_columns(w: TROSpace, tol):
    """(left, left complement, right, right complement): orthonormal columns
    of the joint column and row spaces of a nonzero TRO and of their
    orthogonal complements, with p x q = x checked for the projections p, q."""
    left, left_rest = _range_columns(list(w.basis), tol)
    right, right_rest = _range_columns([x.conj().T for x in w.basis], tol)
    p = left @ left.conj().T
    q = right @ right.conj().T
    for x in w.basis:
        if hs_norm(p @ x @ q - x) > 10 * tol.eq_tol * max(1.0, hs_norm(x)):
            raise ArithmeticError("support projections do not reproduce the space")
    return left, left_rest, right, right_rest


def support_projections(w: TROSpace, tol: ToleranceConfig | None = None):
    """(p, q): projections onto the joint column and row spaces, with p x q = x."""
    tol = tol or DEFAULT_TOL
    m, n = w.space.shape
    if w.dim == 0:
        return np.zeros((m, m), complex), np.zeros((n, n), complex)
    left, _, right, _ = _support_columns(w, tol)
    return left @ left.conj().T, right @ right.conj().T


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Rectangular block form of a TRO.

    ``left_unitary* . w . right_unitary`` is supported on diagonal rectangular
    blocks of the listed (rows, cols) shapes; the projections are the block
    supports in the original frame.
    """

    blocks: tuple
    left_unitary: np.ndarray
    right_unitary: np.ndarray
    row_offsets: tuple
    col_offsets: tuple
    left_projections: tuple
    right_projections: tuple


def _cluster(values, gap):
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= gap:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return groups


def block_decompose(w: TROSpace, tol: ToleranceConfig | None = None, seed: int = 0) -> BlockStructure:
    """Unitaries putting the TRO into diagonal rectangular block form.

    A one-dimensional center of the left linking algebra means one block,
    whose left and right columns are the supports of the TRO; its central
    element must then be a multiple of the left support.  Otherwise minimal
    central projections are separated by the spectrum of one random
    Hermitian center element; a fresh element is drawn when eigenvalues
    collide (up to ten retries).  Each block's eigenvectors are its left
    columns; the right columns are the row space of the block's slice of
    the TRO.
    """
    tol = tol or DEFAULT_TOL
    m, n = w.space.shape
    if w.dim == 0:
        return BlockStructure((), np.eye(m, dtype=complex), np.eye(n, dtype=complex), (), (), (), ())
    link = w.linking
    left, left_rest, right, right_rest = _support_columns(w, tol)
    p = left @ left.conj().T
    # center of the linking algebra: coefficients y with sum_i y_i (c_ijk - c_jik) = 0
    c = link.structure
    commutators = (c - c.transpose(1, 0, 2)).reshape(link.dim, -1)
    center_coeffs = null_space(commutators.T, tol.eq_tol, min_scale=1.0)
    center = np.einsum("ck,kij->cij", center_coeffs, link.space.stack)
    r = len(center)
    if r == 0:
        raise ArithmeticError("linking algebra has an empty center")
    if r == 1:
        # the unit of the linking algebra is p, and a simple algebra's center is C p
        scale = np.vdot(p, center[0]) / left.shape[1]
        if hs_norm(center[0] - scale * p) > 1e-6 * max(1.0, hs_norm(center[0])):
            raise DegenerateDecompositionError("the one-dimensional center is not spanned by the left support")
        return BlockStructure(
            ((left.shape[1], right.shape[1]),), np.hstack([left, left_rest]), np.hstack([right, right_rest]),
            (0,), (0,), (p,), (right @ right.conj().T,),
        )

    rng = np.random.default_rng(seed)
    last_error = None
    for _ in range(10):
        mu = rng.uniform(1.0, 2.0, r) + 1j * rng.uniform(-0.5, 0.5, r)
        h = np.einsum("c,cij->ij", mu, center)
        h = (h + h.conj().T) / 2.0  # the center is *-closed, so h stays central
        vals, vecs = np.linalg.eigh(h)
        gap = 1e-6 * max(1.0, float(np.abs(vals).max()))
        groups = _cluster(vals, gap)
        nonzero = [abs(float(np.mean(vals[g]))) > gap for g in groups]
        left_cols = [vecs[:, g] for g, nz in zip(groups, nonzero) if nz]
        zero_cols = [vecs[:, g] for g, nz in zip(groups, nonzero) if not nz]
        if len(left_cols) != r:
            last_error = f"expected {r} spectral blocks, found {len(left_cols)}"
            continue
        total = sum(cols @ cols.conj().T for cols in left_cols)
        if hs_norm(total - p) > 1e-6 * max(1.0, hs_norm(p)):
            last_error = "spectral projections do not sum to the left support"
            continue
        break
    else:
        raise DegenerateDecompositionError(last_error or "no separating center element found")

    # deterministic block order: by size, then by first supported row
    def block_key(cols):
        first_row = int(np.argmax(np.sum(np.abs(cols) ** 2, axis=1) > 0.5))
        return (-cols.shape[1], first_row)

    left_cols.sort(key=block_key)
    right_cols = [_range_columns([x.conj().T @ cols for x in w.basis], tol)[0] for cols in left_cols]
    lu = np.hstack(left_cols + zero_cols)
    ru = np.hstack(right_cols + [right_rest])
    if ru.shape != (n, n):
        raise DegenerateDecompositionError("block supports do not fill the ambient space")

    blocks = tuple((lc.shape[1], rc.shape[1]) for lc, rc in zip(left_cols, right_cols))
    row_off, col_off = [], []
    ro = co = 0
    for nk, mk in blocks:
        row_off.append(ro)
        col_off.append(co)
        ro += nk
        co += mk
    # off-block mass must vanish
    for x in w.basis:
        rot = lu.conj().T @ x @ ru
        mask = np.ones_like(rot, dtype=bool)
        for (nk, mk), ro_k, co_k in zip(blocks, row_off, col_off):
            mask[ro_k : ro_k + nk, co_k : co_k + mk] = False
        if np.abs(rot[mask]).max(initial=0.0) > 1e-7 * max(1.0, hs_norm(x)):
            raise DegenerateDecompositionError("rotated space is not supported on its blocks")
    return BlockStructure(
        blocks, lu, ru, tuple(row_off), tuple(col_off),
        tuple(lc @ lc.conj().T for lc in left_cols), tuple(rc @ rc.conj().T for rc in right_cols),
    )


def is_simple_tro(w: TROSpace, tol: ToleranceConfig | None = None, seed: int = 0) -> bool:
    """A TRO is simple when its block form has exactly one block."""
    return len(block_decompose(w, tol, seed).blocks) == 1


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """A TRO envelope candidate for a subspace.

    EXACT means the generated TRO is simple, hence equal to the injective
    envelope.  Otherwise the best block-deletion candidate is returned with
    status CANDIDATE; the embedding maps the input into the envelope and is
    certified completely isometric.
    """

    envelope: TROSpace
    status: str  # "EXACT" | "CANDIDATE"
    deleted_blocks: tuple
    embedding: LinearMapOnSubspace
    blocks: BlockStructure


def injective_envelope(
    space: Subspace, tol: ToleranceConfig | None = None, seed: int = 0
) -> EnvelopeResult:
    """Generated TRO when simple; otherwise a maximal block-deletion candidate.

    Deletion candidates keep a subset of blocks and compress; a candidate is
    accepted only when the compression restricted to the input is a complete
    isometry.  Ties break toward more deletions, then lexicographic subsets.
    """
    tol = tol or DEFAULT_TOL
    w = generate_tro(space, tol)
    bs = block_decompose(w, tol, seed)
    if len(bs.blocks) == 1:
        return EnvelopeResult(w, "EXACT", (), identity_map(space), bs)

    r = len(bs.blocks)
    best = None  # (num_deleted, kept_subset, envelope, embedding)
    for keep_size in range(1, r):  # most deletions first
        for kept in itertools.combinations(range(r), keep_size):
            pl = sum(bs.left_projections[k] for k in kept)
            qr = sum(bs.right_projections[k] for k in kept)
            images = tuple(pl @ x @ qr for x in space.basis)
            emb = LinearMapOnSubspace(space, images, space.shape)
            flat = np.stack([im.ravel() for im in images]) if images else np.zeros((0, 1))
            if numerical_rank(np.linalg.svd(flat, compute_uv=False), tol.eq_tol, 1.0) < len(images):
                continue  # compression kills part of the input
            outcome = cb.is_complete_isometry(emb, tol, seed)
            if outcome.status != cb.FEASIBLE:
                continue
            compressed = orthonormalize([pl @ x @ qr for x in w.basis], tol, shape=space.shape)
            cand_env = generate_tro(compressed, tol)
            cand = (r - keep_size, kept, cand_env, emb)
            if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
        if best is not None:
            break  # found at this deletion count; smaller deletion counts are worse
    if best is None:
        return EnvelopeResult(w, "CANDIDATE", (), identity_map(space), bs)
    deleted = tuple(k for k in range(r) if k not in best[1])
    return EnvelopeResult(best[2], "CANDIDATE", deleted, best[3], bs)


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

    def embed(x):
        out = np.zeros((m + n, m + n), complex)
        out[:m, :m] = x @ z.conj().T
        out[:m, m:] = x @ defect
        return out

    images = tuple(embed(x) for x in z_space.basis)
    phi = LinearMapOnSubspace(z_space.space, images, (m + n, m + n))
    # ternary morphism and multiplicativity against the pairing, on the basis
    for x in z_space.basis:
        for y in z_space.basis:
            px, py = phi.apply(x, tol), phi.apply(y, tol)
            prod = px @ py
            target = phi.apply(z_space.space.project(x @ z.conj().T @ y), tol)
            if hs_norm(prod - target) > 1e-6 * max(1.0, hs_norm(prod)):
                raise ArithmeticError("embedding failed to be multiplicative")
            for v in z_space.basis:
                tern = px @ phi.apply(v, tol).conj().T @ py
                target3 = phi.apply(z_space.space.project(x @ v.conj().T @ y), tol)
                if hs_norm(tern - target3) > 1e-6 * max(1.0, hs_norm(tern)):
                    raise ArithmeticError("embedding failed to be a ternary morphism")
    return phi
