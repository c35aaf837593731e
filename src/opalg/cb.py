"""Completely bounded norm certification via positive semidefinite feasibility.

A map phi defined on a subspace S of M_{m,n} is completely contractive
exactly when it extends to a 2x2 block map on M_{m+n} that is completely
positive and fixes the two identity corners.  That extension problem is a
feasibility question for the Choi matrix: positive semidefinite, subject to
linear constraints pinning its action on the corners and on S.  Symmetry
and each envelope block deletion into blocks not all 1 x 1 are one such
decision (`is_symmetric_space`, `tro.injective_envelope`).

The fast FEASIBLE exit reads a Kraus form phi(x) = A (1_r (x) x) B as
factors a, b of the off-diagonal Choi block K = a b*.  The completion's Choi
matrix is then a Gram matrix plus diagonal pads (`_kraus_choi`), PSD when
Haagerup's bound h = ||sum A A*||^1/2 ||sum B* B||^1/2 is at most one
(Paulsen, Completely bounded maps and operator algebras, 2002, Thm. 8.4),
so Weyl's floor min(0, (1 - h)/m, (1 - h)/n) stands in for an eigensolve.
The factors have two sources.  A unitary pair t_k = u s_k v, read off one
intertwiner null space (`_fit_conjugation_pair`), gives (vec u, vec v).
Otherwise one SVD of the Choi block of phi P_S, P_S the HS projection onto
S, gives them; that is exact for CP maps (||phi||_cb = ||phi(1)||), every
x -> a x b and scaled conjugations.  A map that needs a better extension
than phi P_S goes on.

The violation search polishes each run of starts (one amplification
level's random starts, the unit starts, or the transpose pattern, padded
with zero blocks to level max(m, n)) together.  Each step takes one
batched Hermitian eigensolve for the top singular pairs of the images and
one for the norms of the amplified elements, both on the Gram matrices of
the shorter side; it takes no SVD.  A run ends early once every start is
a fixed point of its ascent step up to phase and scale, since later steps
would only repeat it.  For a map into M_{kr, kc} it goes up
to level max(kr, kc): by Smith's lemma (R. R. Smith, J. London Math. Soc.
1983) the cb norm of such a map is the norm of that amplification.  That
level comes first, after the transpose pattern, and the search stops at
the first run that finds a violation.  The random starts are drawn when
the first random run is reached, and the pinned constraints only when a
witness is checked or Dykstra runs, so a map that the transpose pattern
settles pays for neither.

Last comes Dykstra: alternating projections between the PSD cone and the
pinned affine set.  Every such problem has a parity grading (Paulsen 2002,
ch. 8): replacing Phi by D Phi(D x D) D, with D = diag(1, -1) on each side,
keeps both identity corners, each pinned [[0, s], [0, 0]] and complete
positivity, so the iterates stay block diagonal in the sign
sigma_i sigma_u of a Choi row (i, u).  Each PSD projection takes one
eigensolve per parity block, of m kr + n kc and m kc + n kr rows; for M_n
two of 2n^2 in place of one of 4n^2.  The exact PSD test of an iterate is
skipped while a Courant-Fischer bound, the Rayleigh quotient of the last
projection's bottom eigenvectors, shows that it cannot pass.

The least operator norm over an affine set, which settles reversibility,
comes as a bracket: Newton's method on a smoothed top eigenvalue gives the
upper bound, and its softmax density a trace-norm dual witness for the
lower one.  A NO verdict carries that witness; UNDECIDED means the bracket
contains 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import SimpleNamespace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    Subspace,
    ToleranceConfig,
    op_norm,
    orthonormalize,
    row_basis,
)

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDECIDED",
    "FeasibilityOutcome",
    "is_completely_contractive",
    "is_complete_isometry",
    "is_symmetric_space",
    "inverse_map",
    "AffineMatrixSet",
    "MinNormResult",
    "min_opnorm_affine",
]

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
UNDECIDED = "UNDECIDED"


@dataclass(frozen=True, eq=False)
class FeasibilityOutcome:
    """Outcome of a contractivity question.

    FEASIBLE carries a PSD Choi witness and its constraint residual.
    INFEASIBLE carries an amplified element whose image norm exceeds its own;
    residual then records the excess ratio minus one.  iterations counts the
    Dykstra iterations taken, 0 when a fast exit settled the decision.
    """

    status: str
    witness: np.ndarray | None
    residual: float
    notes: str = ""
    iterations: int = 0


# ---------------------------------------------------------------------------
# Paulsen-system feasibility program


def _paulsen_constraints(phi: LinearMapOnSubspace):
    """Hermitian, HS-orthonormal pinned directions and their target images.

    The directions are the two identity corners of M_{m+n}, then
    (E + E*)/sqrt 2 and i(E - E*)/sqrt 2 for each E = [[0, s], [0, 0]] with
    s a domain basis element; the targets are the same with s replaced by
    its image.
    """
    m, n = phi.domain.shape

    def embed(stack, a, b):
        out = np.zeros((2 + 2 * len(stack), a + b, a + b), complex)
        out[0, :a, :a] = np.eye(a) / np.sqrt(m)
        out[1, a:, a:] = np.eye(b) / np.sqrt(n)
        up = np.zeros((len(stack), a + b, a + b), complex)
        up[:, :a, a:] = stack
        dn = up.conj().transpose(0, 2, 1)
        out[2::2] = (up + dn) / np.sqrt(2)
        out[3::2] = (1j * up - 1j * dn) / np.sqrt(2)
        return out

    return embed(phi.domain.stack, m, n), embed(phi.image_stack, *phi.codomain_shape)


def _pinned_values(c4, gs) -> np.ndarray:
    # block combination sum_ij g_ij C_ij per pinned direction, as one product
    ni, no = c4.shape[:2]
    flat = c4.transpose(0, 2, 1, 3).reshape(ni * ni, no * no)
    return (gs.reshape(len(gs), ni * ni) @ flat).reshape(-1, no, no)


def _pinned_adjoint(gs_conj, vals) -> np.ndarray:
    # adjoint of _pinned_values: block (i, j) is sum_g conj(g_ij) V_g, in (i, u, j, v) order
    g, ni, _ = gs_conj.shape
    no = vals.shape[1]
    flat = gs_conj.reshape(g, ni * ni).T @ vals.reshape(g, no * no)
    return flat.reshape(ni, ni, no, no).transpose(0, 2, 1, 3)


def _parity_blocks(domain_shape, codomain_shape) -> list:
    """Row indices of the two parity blocks of a Choi matrix in (i, u) order.

    Row (i, u) has the sign sigma_i sigma_u, where sigma is +1 on the first
    corner of each side (m of the m + n inputs, kr of the kr + kc outputs)
    and -1 on the second.  The even block has m kr + n kc rows and the odd
    block m kc + n kr.
    """
    (m, n), (kr, kc) = domain_shape, codomain_shape
    sign = np.outer(np.repeat([1, -1], [m, n]), np.repeat([1, -1], [kr, kc])).ravel()
    return [np.flatnonzero(sign > 0), np.flatnonzero(sign < 0)]


def _dykstra_feasibility(gs, targets, domain_shape, codomain_shape, tol, max_iter):
    """Dykstra between the PSD cone and the pinned affine set, one parity
    block of the Choi matrix at a time.

    With D_in = diag(1_m, -1_n) and D_out = diag(1_kr, -1_kc), the map
    x -> D_out Phi(D_in x D_in) D_out fixes both identity corners, sends
    each pinned [[0, s], [0, 0]] to itself and keeps complete positivity.
    So it preserves both sets, and on the Choi matrix it is conjugation by
    the sign of `_parity_blocks`.  The start is invariant under it, and both
    projections commute with it, so every iterate is block diagonal in that
    grading: the affine step multiplies by exact zeros off the blocks, and
    the PSD step takes one eigensolve per block.

    Each iterate y meets the constraints, and it certifies feasibility once
    it is (almost) positive semidefinite.  That test takes an eigensolve of
    each block.  By Courant-Fischer, the Rayleigh quotient of any unit vector
    bounds the least eigenvalue above, so the test is skipped while the
    bottom eigenvector of a block at the previous projection has a quotient
    on y below -eq_tol: the test could not pass.

    Returns (status, point, residual, iterations) with status FEASIBLE, or
    UNDECIDED on stall / iteration cap.  The point is the full Choi matrix,
    zero off the blocks.
    """
    ni, no = sum(domain_shape), sum(codomain_shape)
    size = ni * no
    parity = _parity_blocks(domain_shape, codomain_shape)
    blocks = [np.ix_(rows, rows) for rows in parity]
    gs_conj = gs.conj()
    psd_floor = -tol.eq_tol

    def split(c4):
        flat = c4.reshape(size, size)
        return [flat[b] for b in blocks]

    def join(parts):
        out = np.zeros((size, size), complex)
        for b, part in zip(blocks, parts):
            out[b] = part
        return out

    def psd_project(parts):
        # each block's PSD part, and its bottom eigenvector for the next skip test
        out, bottom = [], []
        for part in parts:
            w, v = np.linalg.eigh((part + part.conj().T) / 2.0)
            z = (v * np.maximum(w, 0.0)) @ v.conj().T
            out.append((z + z.conj().T) / 2.0)
            bottom.append(v[:, 0])
        return out, bottom

    c4 = _pinned_adjoint(gs_conj, targets)  # least-norm affine point
    viol = _pinned_values(c4, gs) - targets
    q = [np.zeros((len(rows), len(rows)), complex) for rows in parity]
    probes = None
    best = np.inf
    best_point = None
    window = 250
    last_improvement = 0
    for it in range(max_iter):
        # affine projection; viol is the constraint violation of c4
        y = split(c4 - _pinned_adjoint(gs_conj, viol))
        if probes is None or min(np.vdot(x, part @ x).real for x, part in zip(probes, y)) >= psd_floor:
            ymin = min(float(np.linalg.eigvalsh((part + part.conj().T) / 2.0)[0]) for part in y)
            if ymin >= psd_floor:
                return FEASIBLE, join(psd_project(y)[0]), max(0.0, -ymin), it + 1
        zs, probes = psd_project([part + r for part, r in zip(y, q)])
        q = [part + r - z for part, r, z in zip(y, q, zs)]
        z = join(zs)
        c4 = z.reshape(ni, no, ni, no)
        viol = _pinned_values(c4, gs) - targets
        res = float(np.linalg.norm(viol))
        if res < best * (1.0 - 1e-4):
            best, best_point, last_improvement = res, z, it
        if res <= tol.sdp_tol:
            return FEASIBLE, z, res, it + 1
        if it - last_improvement > window and best > 10.0 * tol.sdp_tol:
            return UNDECIDED, best_point, best, it + 1
    return UNDECIDED, best_point, best, max_iter


# ---------------------------------------------------------------------------
# fast feasibility certificate: phi(x) = u x v with contractions u, v


def _polar_unitary(m: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """The matrices of a (d, r, c) stack placed side by side: r x (d c)."""
    d, r, c = stack.shape
    return stack.transpose(1, 0, 2).reshape(r, d * c)


def _intertwiner_gram(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Gram matrix E* E of a s_k = t_k b and b s_k* = t_k* a in
    x = (vec a, vec b), row-major vec, for (d, m, n) stacks s and t.  The
    rows of E are [1 (x) s^T, -t (x) 1] and [-t* (x) 1, 1 (x) conj(s)], so
    its blocks are 1 (x) (sum s s*)^T + (sum t t*) (x) 1,
    (sum t* t) (x) 1 + 1 (x) (sum s* s)^T and -2 sum t (x) conj(s): the
    2dmn rows of E are never formed."""
    d, m, n = s.shape

    def kron_sum(left, right):  # left (x) 1 + 1 (x) right, without np.kron
        p, q = len(left), len(right)
        out = left[:, None, :, None] * np.eye(q)[:, None] + np.eye(p)[:, None, :, None] * right[:, None]
        return out.reshape(p * q, p * q)

    ss, tt = (w @ w.conj().T for w in (_side_by_side(s), _side_by_side(t)))
    s_s, t_t = (h.conj().T @ h for h in (s.reshape(-1, n), t.reshape(-1, n)))
    cross = (t.reshape(d, m * n).T @ s.reshape(d, m * n).conj()).reshape(m, n, m, n)
    gram = np.empty((m * m + n * n,) * 2, complex)
    gram[: m * m, : m * m] = kron_sum(tt, ss.T)
    gram[m * m :, m * m :] = kron_sum(t_t, s_s.T)
    gram[: m * m, m * m :] = -2.0 * cross.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    gram[m * m :, : m * m] = gram[: m * m, m * m :].conj().T
    return gram


def _fit_conjugation_pair(phi: LinearMapOnSubspace, tol: ToleranceConfig, seed: int):
    """Unitaries u, v with phi(x) = u x v on the domain basis, returned only
    when ||u S v - T|| <= 1e-11 scale, scale = max(1, ||T||); None when the
    shapes differ, the HS Gram matrices of the two bases differ (a unitary
    pair keeps it), or no pair is found.  A zero domain takes zero factors.

    With h(s) = [[0, s], [s*, 0]] (Paulsen 2002), T_k = u S_k v exactly when
    X = diag(u, v*) has X h(S_k) = h(T_k) X, which is linear in
    X = diag(a, b): a S_k = T_k b and b S_k* = T_k* a.  The adjoint
    h(S_k) X* = X* h(T_k) makes X* X, hence |X|, commute with every h(S_k),
    so an invertible X = W |X| has W h(S_k) = h(T_k) W: W = diag(u, v*) is a
    pair.  det X is a polynomial on the solutions, so a random one is
    invertible if any is.  They are the kernel of one eigh of the equations'
    Gram matrix (`_intertwiner_gram`), cut at eq_tol max(1, lambda_max); an
    empty kernel rules out every pair.  Squaring the equations squares their
    conditioning, which is safe only because the pair is checked: a bad cut
    costs a fall-through, never a wrong certificate (`tro._commuting`, whose
    rank decides a TRO, keeps an SVD null space).
    """
    m, n = phi.domain.shape
    s, t = phi.domain.stack, phi.image_stack
    if phi.domain.dim == 0:
        return np.zeros((phi.codomain_shape[0], m), complex), np.zeros((n, phi.codomain_shape[1]), complex)
    if (m, n) != phi.codomain_shape:
        return None
    scale = max(1.0, float(np.linalg.norm(t)))
    flat_s, flat_t = s.reshape(len(s), -1), t.reshape(len(t), -1)
    if np.abs(flat_t.conj() @ flat_t.T - flat_s.conj() @ flat_s.T).max() > tol.eq_tol * scale:
        return None
    lam, vecs = np.linalg.eigh(_intertwiner_gram(s, t))
    kernel = vecs[:, lam <= tol.eq_tol * max(1.0, lam[-1])]
    if not kernel.size:
        return None
    rng = np.random.default_rng(seed)
    x = kernel @ (rng.standard_normal(kernel.shape[1]) + 1j * rng.standard_normal(kernel.shape[1]))
    u, v = _polar_unitary(x[: m * m].reshape(m, m)), _polar_unitary(x[m * m :].reshape(n, n)).conj().T
    return (u, v) if np.linalg.norm(u @ s @ v - t) <= 1e-11 * scale else None


def _choi_block_factors(phi: LinearMapOnSubspace, tol: ToleranceConfig):
    """Factors a (m, kr, r), b (n, kc, r) of the off-diagonal Choi block
    K[(i, u), (j, v)] = sum_k conj(s_k[i, j]) t_k[u, v] of phi P_S, P_S the
    HS projection onto the domain: from one SVD K = U S V*, a = U S^1/2 and
    b = V S^1/2, cut at eq_tol max(1, s_1).  With A_l = a[..., l]^T and
    B_l = conj(b[..., l]), phi P_S(x) = sum_l A_l x B_l, of multiplicity r."""
    (d, m, n), (kr, kc) = phi.domain.stack.shape, phi.codomain_shape
    block = phi.domain.stack.reshape(d, m * n).conj().T @ phi.image_stack.reshape(d, kr * kc)
    block = block.reshape(m, n, kr, kc).transpose(0, 2, 1, 3).reshape(m * kr, n * kc)
    left, sigma, right = np.linalg.svd(block, full_matrices=False)
    r = int(np.count_nonzero(sigma > tol.eq_tol * max(1.0, sigma[0])))
    root = np.sqrt(sigma[:r])
    return (left[:, :r] * root).reshape(m, kr, r), (right[:r].conj().T * root).reshape(n, kc, r)


def _kraus_choi(a: np.ndarray, b: np.ndarray, eq_tol: float):
    """Weyl's floor and the Choi witness of a completion of the map with
    off-diagonal Choi block a b*, for a (m, kr, r) and b (n, kc, r); the
    witness is None when the floor is below -eq_tol.

    With P, Q the partial traces over the input index of a a*, b b* and
    t = sqrt(||Q|| / ||P||), the witness is G G*, G = sqrt(t) a (+) b / sqrt(t)
    on the corners' rows, plus (1 - t P)/m and (1 - Q/t)/n on their diagonal
    units, which pin both identities.  So its least eigenvalue is at least
    min(0, (1 - h)/m, (1 - h)/n), h = sqrt(||P|| ||Q||) Haagerup's bound.
    """
    (m, kr, r), (n, kc, _) = a.shape, b.shape
    ni, no = m + n, kr + kc
    p, q = (w @ w.conj().T for w in (_side_by_side(a), _side_by_side(b)))
    p_norm, q_norm = (float(np.linalg.eigvalsh(x)[-1]) for x in (p, q))
    t = np.sqrt(q_norm / p_norm) if p_norm > 0.0 else 1.0
    h = np.sqrt(p_norm * q_norm)
    floor = min(0.0, (1.0 - h) / m, (1.0 - h) / n)
    if floor < -eq_tol:
        return floor, None
    g = np.zeros((ni, no, r), complex)
    g[:m, :kr], g[m:, kr:] = np.sqrt(t) * a, b / np.sqrt(t)
    out = (g.reshape(-1, r) @ g.reshape(-1, r).conj().T).reshape(ni, no, ni, no)
    diagonal = np.arange(ni)
    out[diagonal[:m], :kr, diagonal[:m], :kr] += (np.eye(kr) - t * p) / m
    out[diagonal[m:], kr:, diagonal[m:], kr:] += (np.eye(kc) - q / t) / n
    return floor, out.reshape(ni * no, ni * no)


# ---------------------------------------------------------------------------
# violation search


def _block_matrices(coeffs: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """(B, L, L, d) block coefficients against a (d, r, c) stack: B matrices
    of shape (L r, L c) whose block (u, v) is sum_k coeffs[:, u, v, k] stack[k]."""
    b, level, _, d = coeffs.shape
    _, r, c = stack.shape
    blocks = (coeffs.reshape(-1, d) @ stack.reshape(d, r * c)).reshape(b, level, level, r, c)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(b, level * r, level * c)


def _short_gram(mats: np.ndarray):
    """Each matrix of a batch, conjugate-transposed if it is tall, and the
    Gram matrix a a* of that shorter side."""
    a = mats if mats.shape[1] <= mats.shape[2] else mats.conj().transpose(0, 2, 1)
    return a, a @ a.conj().transpose(0, 2, 1)


def _top_singular(mats: np.ndarray):
    """Top singular value s and singular vectors u, vh of each matrix of a
    batch, with mats ~ s u vh at the top.

    One Hermitian eigensolve of the Gram matrix of the shorter side gives s
    as the root of its top eigenvalue and the singular vector on that side;
    the matrix maps that vector to s times the other one.  A zero matrix
    gives s = 0 and a zero vector on the longer side.
    """
    a, gram = _short_gram(mats)
    lam, vecs = np.linalg.eigh(gram)
    s = np.sqrt(np.maximum(lam[:, -1], 0.0))
    near = vecs[:, :, -1].copy()  # frees the full eigenbasis on return
    far = (near.conj()[:, None, :] @ a)[:, 0] / np.where(s > 0.0, s, 1.0)[:, None]
    if a is mats:
        return s, near, far
    return s, far.conj(), near.conj()


def _polish(phi: LinearMapOnSubspace, coeffs: np.ndarray, steps: int):
    """Gradient ascent of ||phi_L(X)|| / ||X|| from B starts at once.

    coeffs: (B, L, L, d) block coefficients of the starts at level L.  Each
    step takes one batched Hermitian eigensolve of the images Y = phi_L(X)
    through _top_singular, which gives their norms and top singular pairs,
    and one batched eigvalsh of the X's Gram matrices, whose top eigenvalue
    is ||X||^2; no SVD.  It moves each start to the block coefficients
    <T_k, block (u, v) of y1 z1*> of its Y's top singular pair (y1, z1).  A
    start whose Y or step vanishes stays where it is.  Returns the best
    ratio of each start and the coefficients that reached it, which take
    less memory than the amplified elements.

    The run ends before its steps are spent once every moving start is a
    fixed point of the step up to phase and scale,
    |<c_new, c_old>| >= (1 - 1e-12) ||c_new|| ||c_old||: the ratio does not
    depend on either, so later steps would only repeat it.  That is no
    stall rule; the ascent can pause and then climb again.
    """
    dstack, istack = phi.domain.stack, phi.image_stack
    level = coeffs.shape[1]
    kr, kc = phi.codomain_shape
    moving = np.ones(len(coeffs), bool)
    best_ratio, best = np.full(len(coeffs), -np.inf), coeffs
    for step in range(steps + 1):
        lam = np.linalg.eigvalsh(_short_gram(_block_matrices(coeffs, dstack))[1])
        nx = np.sqrt(np.maximum(lam[:, -1], 0.0))
        ny, left, right = _top_singular(_block_matrices(coeffs, istack))
        ratio = np.divide(ny, nx, out=np.zeros_like(nx), where=nx > 0.0)
        better = moving & (ratio > best_ratio)
        best_ratio = np.where(better, ratio, best_ratio)
        best = np.where(better[:, None, None, None], coeffs, best)
        if step == steps:
            break
        left = left.reshape(-1, level, kr)
        right = right.conj().reshape(-1, level, kc)
        w = np.einsum("bukj,bvj->buvk", np.einsum("bui,kij->bukj", left, istack.conj()), right)
        norm = np.linalg.norm(w.reshape(len(w), -1), axis=1)
        moving &= (ny > 0.0) & (norm > 0.0)
        step_to = w.conj() / np.where(moving, norm, 1.0)[:, None, None, None]
        flat_to, flat = step_to.reshape(len(w), -1), coeffs.reshape(len(w), -1)
        overlap = np.abs(np.einsum("bi,bi->b", flat_to.conj(), flat))
        if np.all(~moving | (overlap >= (1.0 - 1e-12) * np.linalg.norm(flat, axis=1))):
            break  # every moving start is a fixed point up to phase and scale
        coeffs = np.where(moving[:, None, None, None], step_to, coeffs)
    return best_ratio, best


def _violation_search(phi: LinearMapOnSubspace, tol: ToleranceConfig, seed: int):
    """The best ratio ||phi_L(X)|| / ||X|| of the first run of starts that
    exceeds one by more than sdp_tol, with its X; None when no run does.

    The runs are the unit starts, twelve random starts at each level L up to
    max(kr, kc), and for a domain in M_{m,n} the transpose pattern at level
    max(m, n).
    By Smith's lemma the cb norm of a map into M_{kr, kc} is reached at
    level max(kr, kc), so the pattern and that level are polished first,
    then the unit starts and the levels from 1 up.  The random starts of
    every level are drawn from level 1 up when the first random run (level
    max(kr, kc)) is reached, so each run's starts do not depend on that
    order, and a map that the pattern settles draws none.
    """
    d = phi.domain.dim
    if d == 0:
        return None
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    top = max(kr, kc, 2)

    def runs():
        level = max(m, n)
        if 2 <= level <= top:
            # blockwise projection of the transpose pattern: e_vu at block (u, v)
            # for u < n and v < m, padded with zero blocks to a square level
            pattern = np.zeros((1, level, level, d), complex)
            pattern[0, :n, :m] = phi.domain.stack.conj().transpose(2, 1, 0)
            yield pattern, 6
        rng = np.random.default_rng(seed)  # drawn at the first random run, from level 1 up
        shapes = [(level, level, d) for level in range(1, top + 1)]
        drawn = [np.stack([rng.standard_normal(s) + 1j * rng.standard_normal(s) for _ in range(12)]) for s in shapes]
        yield drawn[-1], 6
        yield np.eye(d, dtype=complex).reshape(d, 1, 1, d), 0
        yield drawn[0], 4
        yield from ((starts, 6) for starts in drawn[1:-1])

    for starts, steps in runs():
        ratios, coeffs = _polish(phi, starts, steps)
        i = int(np.argmax(ratios))
        if ratios[i] > 1.0 + tol.sdp_tol:
            return float(ratios[i]), _block_matrices(coeffs[i : i + 1], phi.domain.stack)[0]
    return None


# ---------------------------------------------------------------------------
# public decisions


def is_completely_contractive(
    phi: LinearMapOnSubspace, tol: ToleranceConfig | None = None, seed: int = 0
) -> FeasibilityOutcome:
    """Decide whether phi has completely bounded norm at most one.

    Tries the Choi witness (`_kraus_choi`) of a unitary pair, then that of
    the factors of phi P_S's Choi block, then a search for violating
    amplified elements, then Dykstra.  A witness is accepted when Weyl's
    floor is at least -eq_tol and its pinned residual at most sdp_tol, with
    no eigensolve of it and 0 iterations.  The note names the exit:
    "conjugation certificate" (of multiplicity r for the Choi block),
    "amplified norm ratio R at level L" or "alternating projections".
    UNDECIDED is returned when Dykstra stalls or hits its cap.
    """
    tol = tol or DEFAULT_TOL
    constraints = cache(lambda: _paulsen_constraints(phi))  # none on the way to a violation
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    ni, no = m + n, kr + kc

    def certificate(a, b):
        witness = _kraus_choi(a, b, tol.eq_tol)[1]
        if witness is None:
            return None
        gs, targets = constraints()
        res = float(np.linalg.norm(_pinned_values(witness.reshape(ni, no, ni, no), gs) - targets))
        return (witness, res) if res <= tol.sdp_tol else None

    # a unitary pair (zero factors on a zero domain), then the Choi block's factors
    pair = _fit_conjugation_pair(phi, tol, seed)
    found = certificate(pair[0].T[:, :, None], pair[1].conj()[:, :, None]) if pair else None
    if found:
        return FeasibilityOutcome(FEASIBLE, *found, "conjugation certificate")
    a, b = _choi_block_factors(phi, tol)
    found = certificate(a, b)
    if found:
        return FeasibilityOutcome(FEASIBLE, *found, f"conjugation certificate of multiplicity {a.shape[2]}")

    found = _violation_search(phi, tol, seed)
    if found is not None:
        ratio, x = found
        note = f"amplified norm ratio {ratio:.6g} at level {x.shape[0] // m}"
        return FeasibilityOutcome(INFEASIBLE, x, ratio - 1.0, note)

    status, point, res, iterations = _dykstra_feasibility(
        *constraints(), phi.domain.shape, phi.codomain_shape, tol, tol.max_iter
    )
    note = "alternating projections" if status == FEASIBLE else "feasibility iteration stalled or hit its cap"
    return FeasibilityOutcome(status, point, res, note, iterations)


def inverse_map(phi: LinearMapOnSubspace, tol: ToleranceConfig | None = None) -> LinearMapOnSubspace:
    """Inverse of an injective map, defined on the span of its images."""
    tol = tol or DEFAULT_TOL
    d = phi.domain.dim
    image_space = orthonormalize(phi.image_stack, tol, shape=phi.codomain_shape)
    if image_space.dim != d:
        raise ValueError("map is not injective on its domain")
    # one least-squares solve for the coefficients of every image basis element
    alpha = np.linalg.lstsq(phi.image_stack.reshape(d, -1).T, image_space.stack.reshape(d, -1).T, rcond=None)[0]
    preimages = np.einsum("kf,kij->fij", alpha, phi.domain.stack)
    return LinearMapOnSubspace(image_space, preimages, phi.domain.shape)


def is_complete_isometry(
    phi: LinearMapOnSubspace, tol: ToleranceConfig | None = None, seed: int = 0
) -> FeasibilityOutcome:
    """Complete contractivity of phi and of its inverse on the image."""
    tol = tol or DEFAULT_TOL
    inv = inverse_map(phi, tol)
    fwd = is_completely_contractive(phi, tol, seed)
    if fwd.status == INFEASIBLE:
        return FeasibilityOutcome(INFEASIBLE, fwd.witness, fwd.residual, "forward: " + fwd.notes)
    bwd = is_completely_contractive(inv, tol, seed + 1)
    iterations = fwd.iterations + bwd.iterations
    if bwd.status == INFEASIBLE:
        return FeasibilityOutcome(INFEASIBLE, bwd.witness, bwd.residual, "inverse: " + bwd.notes, iterations)
    residual = max(fwd.residual, bwd.residual)
    if FEASIBLE == fwd.status == bwd.status:
        return FeasibilityOutcome(FEASIBLE, fwd.witness, residual, "both directions", iterations)
    return FeasibilityOutcome(UNDECIDED, None, residual, "one direction undecided", iterations)


def is_symmetric_space(
    space: Subspace, tol: ToleranceConfig | None = None, seed: int = 0
) -> FeasibilityOutcome:
    """Does entrywise transposition preserve all matrix norms on this subspace?

    The transpose T alone is checked: for X = [x_ij] at level k, X^b = [x_ji] and t the transpose
    of M_(kn), an isometry, T_k(X) = t(X^b) and T^-1_k(t(X)) = X^b, so ||T^-1||_k = ||T||_k.
    """
    tol = tol or DEFAULT_TOL
    if space.ambient_rows != space.ambient_cols:
        raise ValueError("symmetry is defined for subspaces of a square matrix space")
    if space.dim == 0:
        return FeasibilityOutcome(FEASIBLE, None, 0.0, "zero subspace")
    transpose = LinearMapOnSubspace(space, np.swapaxes(space.stack, -1, -2), space.shape)
    return is_completely_contractive(transpose, tol, seed)


# ---------------------------------------------------------------------------
# operator-norm minimization over an affine set of matrices


@dataclass(frozen=True, eq=False)
class AffineMatrixSet:
    """particular + real span of directions; residual is the relative
    inconsistency of the defining equations."""

    particular: np.ndarray
    directions: tuple
    residual: float


@dataclass(frozen=True, eq=False)
class MinNormResult:
    """min_norm = ||argmin|| bounds the least norm above, lower below: witness has trace norm
    one and is real-orthogonal to the directions, so Re<w, witness> = lower <= ||w|| on the
    set.  certified: the gap closed to sdp_tol * max(1, min_norm)."""

    status: str  # "OK" | "INCONSISTENT"
    min_norm: float
    argmin: np.ndarray | None
    certified: bool
    lower: float
    witness: np.ndarray | None


_EPS = float(np.finfo(float).eps)


def _smoothed(p0, dstack, c, mu) -> SimpleNamespace:
    """w = p0 + sum c_k D_k and f = mu log tr exp(H / mu) for its dilation
    H = [[0, w], [w*, 0]]: p is the softmax of H's spectrum lam over mu, a
    holds the D_k dilated in H's eigenbasis, g_k = Re<y, D_k> is the
    gradient of f and y = 2 G_12 the corner of the density G = grad_H f."""
    m, n = p0.shape
    w = p0 + np.einsum("k,kij->ij", c, dstack)
    h = np.zeros((m + n, m + n), complex)
    h[:m, m:], h[m:, :m] = w, w.conj().T
    lam, vecs = np.linalg.eigh(h)
    e = np.exp((lam - lam[-1]) / mu)
    p = e / e.sum()
    x = np.einsum("ia,kij,jb->kab", vecs[:m].conj(), dstack, vecs[m:])
    a = x + x.conj().transpose(0, 2, 1)
    g = np.einsum("i,kii->k", p, a).real
    y = 2.0 * (vecs[:m] * p) @ vecs[m:].conj().T
    return SimpleNamespace(c=c, w=w, lam=lam, p=p, f=lam[-1] + mu * np.log(e.sum()), a=a, g=g, y=y)


def _newton_step(it: SimpleNamespace, mu) -> np.ndarray:
    """Newton direction for f, with the Hessian of Daleckii and Krein: the divided differences
    (p_i - p_j) / (lam_i - lam_j) weight the entries of the dilated directions, less g g* / mu."""
    diff = it.lam[:, None] - it.lam[None, :]
    dist = np.maximum(np.abs(diff), _EPS * mu)
    # taken from the larger weight, so expm1 cannot overflow
    weights = np.where(diff >= 0.0, it.p[:, None], it.p[None, :]) * np.expm1(-dist / mu) / -dist
    hess = np.einsum("ij,kij,lij->kl", weights, it.a.conj(), it.a).real - np.outer(it.g, it.g) / mu
    ev, q = np.linalg.eigh(hess)
    return -q @ ((q.T @ it.g) / np.maximum(ev, _EPS * max(ev[-1], 1.0)))


def min_opnorm_affine(aset: AffineMatrixSet, tol: ToleranceConfig | None = None) -> MinNormResult:
    """Minimize the operator norm over an affine set of matrices, with a certified bracket.

    INCONSISTENT when the defining equations had no solution.  The real span of the directions
    is orthonormalized; with no direction the answer is exact.  Otherwise Newton's method
    minimizes mu log tr exp(H / mu), H the Hermitian dilation of w (Nesterov, Math. Program.
    2007), cutting mu tenfold once a stage stops moving.  Each iterate bounds the minimum above
    by ||w|| and below by the dual witness: the corner y of the softmax density, projected off
    the directions and scaled to trace norm one.  The loop ends once the gap is at most
    sdp_tol * max(1, upper), when a stage improves neither bound, or after max_iter steps.
    """
    tol = tol or DEFAULT_TOL
    if aset.residual > tol.eq_tol:
        return MinNormResult("INCONSISTENT", np.inf, None, True, np.inf, None)
    m, n = aset.particular.shape
    p0, dstack = aset.particular, np.zeros((0, m, n), complex)
    if len(aset.directions):
        flat = np.array([np.concatenate([d.real.ravel(), d.imag.ravel()]) for d in aset.directions])
        rows = row_basis(flat, tol.eq_tol)
        dstack = (rows[:, : m * n] + 1j * rows[:, m * n :]).reshape(-1, m, n)
        # start from the point of least Hilbert-Schmidt norm
        p0 = p0 - np.einsum("k,kij->ij", np.einsum("kij,ij->k", dstack.conj(), p0).real, dstack)
    if not len(dstack):
        u, s, vh = np.linalg.svd(p0)
        return MinNormResult("OK", float(s[0]), p0, True, float(s[0]), np.outer(u[:, 0], vh[0]))
    upper, argmin, lower, witness = op_norm(p0), p0, 0.0, None
    mu = max(upper, _EPS) / 10.0
    it, steps, stage_start, g_least = _smoothed(p0, dstack, np.zeros(len(dstack)), mu), 0, (upper, lower), np.inf
    while True:
        if it.lam[-1] < upper:
            upper, argmin = float(it.lam[-1]), it.w
        y = it.y - np.einsum("k,kij->ij", it.g, dstack)
        y_norm = np.linalg.svd(y, compute_uv=False).sum()
        if y_norm > 0.0 and np.vdot(y, p0).real / y_norm > lower:
            lower, witness = float(np.vdot(y, p0).real / y_norm), y / y_norm
        certified = upper - lower <= tol.sdp_tol * max(1.0, upper)
        if certified or steps >= tol.max_iter:
            break
        nxt, g_least = None, min(g_least, np.linalg.norm(it.g))
        if g_least > 8.0 * _EPS * max(1.0, upper):
            steps += 1
            step, t = _newton_step(it, mu), 1.0
            dec, slack = -float(it.g @ step), 16.0 * _EPS * max(1.0, abs(it.f))
            while nxt is None and not np.array_equal(it.c + t * step, it.c):
                trial = _smoothed(p0, dstack, it.c + t * step, mu)
                # Armijo's rule; below the rounding of f, the full step if it lowers the least
                # gradient of the stage, so that such steps cannot cycle
                armijo = trial.f < it.f and trial.f <= it.f - 0.25 * t * dec
                full = t == 1.0 and trial.f <= it.f + slack and np.linalg.norm(trial.g) < g_least
                nxt, t = (trial if armijo or full else None), t / 2.0
        if nxt is None:  # the stage has stopped moving
            if (upper, lower) == stage_start or mu <= _EPS * upper:
                break
            mu, stage_start, g_least = mu / 10.0, (upper, lower), np.inf
            nxt = _smoothed(p0, dstack, it.c, mu)
        it = nxt
    return MinNormResult("OK", op_norm(argmin), argmin, certified, lower, witness)
