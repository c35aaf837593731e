"""Decision procedures built on the ternary pairing x z* y.

Operator algebra products on a space X correspond to contractions z in the
injective envelope with X z* X inside X, the product being x z* y
(Kaneda-Paulsen).  Solving that linear system for the reversed product
decides reversibility: a solution certifies it, and nonexistence inside an
exact envelope refutes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cb
from .algebra import MatrixAlgebra, is_anticommuting, is_commutative
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    as_matrix,
    contains,
    hs_norm,
    numerical_rank,
    op_norm,
    orthonormalize,
    product_stack,
)
from .tro import TROSpace, block_decompose, generate_tro, injective_envelope

__all__ = [
    "TARGET_PRODUCT",
    "TARGET_REVERSED",
    "PairingSolution",
    "ReversibilityVerdict",
    "solve_pairing",
    "certify_reversal_element",
    "decide_reversible",
    "PairingConsistency",
    "pairing_consistency",
    "DoubledAlgebra",
    "transpose_double",
    "BlockPairingReport",
    "block_pairing_report",
]

TARGET_PRODUCT = "product"
TARGET_REVERSED = "reversed"


@dataclass(frozen=True, eq=False)
class PairingSolution:
    """Result of solving b_i v* b_j = mu(b_i, b_j) over a TRO.

    affine_dim counts real directions of the full solution set before the
    norm constraint.  UNIQUE_IN_BALL is set when every sampled perturbation
    along the solution set leaves the unit ball (vacuously so when the
    solution set is a single point).  op_norm is the least norm found over
    the solution set and op_norm_lower a certified lower bound on it.
    """

    element: np.ndarray | None
    residual: float
    op_norm: float
    affine_dim: int
    status: str  # "UNIQUE_IN_BALL" | "FOUND" | "NONE"
    inconsistent: bool = False
    op_norm_lower: float = 0.0


# b_i v* first, then times b_j: a fixed contraction order, not planned per call
_PAIR_PATH = ["einsum_path", (0, 1), (0, 1)]


def _solve_pairing_table(basis, mu, z_space: TROSpace, tol: ToleranceConfig) -> PairingSolution:
    """Solve for v in the TRO with b_i v* b_j = mu[i][j].

    The map v -> b_i v* b_j is conjugate linear, so v is written as
    sum_k conj(d_k) z_k: the system sum_k d_k b_i z_k* b_j = mu_ij is then
    complex linear in d.  One SVD of its matrix, truncated at
    eq_tol * max(1, s_0), gives the minimum-norm solution and the null
    vectors; each null vector n yields the two real directions n and i n of
    the solution set.
    """
    t = z_space.dim
    if t == 0:
        return PairingSolution(None, np.inf, np.inf, 0, "NONE", inconsistent=True, op_norm_lower=np.inf)
    B = np.asarray(basis, dtype=complex)
    Z = z_space.space.stack
    mu = np.asarray(mu, dtype=complex)
    system = np.einsum("iar,ksr,jsc->ijack", B, Z.conj(), B, optimize=_PAIR_PATH).reshape(-1, t)
    target = mu.ravel()
    u, s, vh = np.linalg.svd(system, full_matrices=system.shape[0] < t)
    rank = numerical_rank(s, tol.eq_tol, min_scale=1.0)
    d = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ target) / s[:rank])
    raw = float(np.linalg.norm(system @ d - target))
    scale = max(1.0, float(np.linalg.norm(target)))
    affine_dim = 2 * (t - rank)

    if raw > tol.eq_tol * scale:
        return PairingSolution(None, raw / scale, np.inf, affine_dim, "NONE", inconsistent=True, op_norm_lower=np.inf)

    # d and the null vectors conj(vh[rank:]) become elements through conj(.) . z
    particular = np.einsum("k,kij->ij", d.conj(), Z)
    null_elements = np.einsum("nk,kij->nij", vh[rank:], Z)
    directions = tuple(e for n in null_elements for e in (n, 1j * n))
    aset = cb.AffineMatrixSet(particular, directions, 0.0)
    res = cb.min_opnorm_affine(aset, tol)
    if res.min_norm > 1.0 + tol.sdp_tol:
        return PairingSolution(None, raw / scale, res.min_norm, affine_dim, "NONE", op_norm_lower=res.lower)
    element = res.argmin
    diff = np.einsum("iar,sr,jsc->ijac", B, element.conj(), B, optimize=_PAIR_PATH) - mu
    final_res = float(
        (np.linalg.norm(diff, axis=(2, 3)) / np.maximum(1.0, np.linalg.norm(mu, axis=(2, 3)))).max()
    )
    status = "FOUND"
    if not directions:
        status = "UNIQUE_IN_BALL"
    else:
        exits = all(
            op_norm(element + eps * direction) > 1.0 + tol.sdp_tol
            for direction in directions
            for eps in (0.01, -0.01)
        )
        if exits:
            status = "UNIQUE_IN_BALL"
    return PairingSolution(element, final_res, res.min_norm, affine_dim, status, op_norm_lower=res.lower)


def solve_pairing(
    A: MatrixAlgebra, z_space: TROSpace, target: str = TARGET_PRODUCT, tol: ToleranceConfig | None = None
) -> PairingSolution:
    """Pairing element for the product (or reversed product) of A inside a TRO."""
    tol = tol or A.tol
    if A.space.shape != z_space.space.shape:
        raise ValueError("algebra and TRO must share one ambient space")
    n = A.ambient
    products = product_stack(A.space.stack, A.space.stack).reshape(A.dim, A.dim, n, n)
    if target == TARGET_PRODUCT:
        mu = products
    elif target == TARGET_REVERSED:
        mu = products.transpose(1, 0, 2, 3)
    else:
        raise ValueError(f"unknown target {target!r}")
    return _solve_pairing_table(A.space.stack, mu, z_space, tol)


def certify_reversal_element(
    A: MatrixAlgebra, w, ambient: TROSpace | None = None, tol: ToleranceConfig | None = None
) -> bool:
    """Sufficient certificate of reversibility: x w y = y x on the basis.

    w is used directly as the middle factor; the corresponding ball element
    of the ternary pairing is its adjoint, which has the same norm.  The
    products x w y must also remain in A (implied by the equality, checked
    anyway).
    """
    tol = tol or A.tol
    w = as_matrix(w)
    if op_norm(w) > 1.0 + tol.eq_tol:
        raise ValueError("certificate element must be a contraction")
    if ambient is not None and not contains(ambient.space, w, tol):
        raise ValueError("certificate element must lie in the ambient TRO")
    for bi in A.basis:
        for bj in A.basis:
            prod = bi @ w @ bj
            target = bj @ bi
            if hs_norm(prod - target) > tol.eq_tol * max(1.0, hs_norm(target)):
                return False
            if not contains(A.space, prod, tol):
                return False
    return True


@dataclass(frozen=True, eq=False)
class ReversibilityVerdict:
    reversible: str  # "YES" | "NO" | "UNDECIDED"
    w: PairingSolution | None
    envelope_status: str | None
    notes: tuple


def decide_reversible(
    A: MatrixAlgebra, tol: ToleranceConfig | None = None, seed: int = 0, envelope=None
) -> ReversibilityVerdict:
    """Is A with reversed multiplication still an operator algebra?

    Anticommuting algebras are reversible outright (the middle element -1
    certifies).  Otherwise the reversed-product pairing system is solved in
    the envelope: a solution in the ball is a certificate.  NO needs an exact
    envelope and a lower bound on the least norm above 1 + sdp_tol (infinite
    for an inconsistent system), which the dual witness certifies.
    """
    tol = tol or A.tol
    notes = []
    if is_anticommuting(A, tol):
        minus_one = -np.eye(A.ambient, dtype=complex)
        if certify_reversal_element(A, minus_one, tol=tol):
            sol = PairingSolution(minus_one, 0.0, 1.0, 0, "FOUND")
            return ReversibilityVerdict("YES", sol, None, ("anticommuting, certified by -identity",))
        notes.append("anticommuting certificate unexpectedly failed")
    env = envelope if envelope is not None else injective_envelope(A.space, tol, seed)
    # transport the algebra into the envelope; for an exact envelope the embedding is the identity
    basis = env.embedding.image_stack
    mu = np.einsum("ijk,kab->ijab", A.structure, basis)
    sol = _solve_pairing_table(basis, mu.transpose(1, 0, 2, 3), env.envelope, tol)
    if sol.status != "NONE":
        return ReversibilityVerdict("YES", sol, env.status, tuple(notes))
    if env.status != "EXACT":
        reason = "no solution, but the envelope is only a candidate"
        return ReversibilityVerdict("UNDECIDED", sol, env.status, tuple(notes + [reason]))
    bracket = f"minimal pairing norm in [{sol.op_norm_lower:.9g}, {sol.op_norm:.9g}]"
    if sol.op_norm_lower > 1.0 + tol.sdp_tol:
        reason = "pairing system inconsistent" if sol.inconsistent else bracket + ", above the ball"
        return ReversibilityVerdict("NO", sol, env.status, tuple(notes + [reason]))
    return ReversibilityVerdict("UNDECIDED", sol, env.status, tuple(notes + [bracket + ", which contains 1"]))


@dataclass(frozen=True, eq=False)
class PairingConsistency:
    """Identities tying the two pairing elements to commutativity."""

    derived_commutative: dict
    derived_residual: float
    interchange_ok: bool
    interchange_residual: float
    z_equals_w: bool
    commutative: bool
    consistent: bool


def pairing_consistency(A: MatrixAlgebra, z, w, tol: ToleranceConfig | None = None) -> PairingConsistency:
    """Check the consequences of having both pairing elements z and w.

    The four one-sided pairings must be commutative, any middle factor in a
    triple product may switch between z and w, and z = w exactly when A is
    commutative.
    """
    tol = tol or A.tol
    z = as_matrix(z)
    w = as_matrix(w)
    basis = list(A.basis)
    zs, ws = z.conj().T, w.conj().T
    derived = {}
    worst = 0.0
    families = {
        "right_by_z": lambda x, y: (x @ zs @ y @ zs, y @ zs @ x @ zs),
        "right_by_w": lambda x, y: (x @ ws @ y @ ws, y @ ws @ x @ ws),
        "left_by_z": lambda x, y: (zs @ x @ zs @ y, zs @ y @ zs @ x),
        "left_by_w": lambda x, y: (ws @ x @ ws @ y, ws @ y @ ws @ x),
    }
    for name, fn in families.items():
        res = 0.0
        for x in basis:
            for y in basis:
                a, b = fn(x, y)
                res = max(res, hs_norm(a - b) / max(1.0, hs_norm(a)))
        derived[name] = res <= tol.eq_tol
        worst = max(worst, res)
    inter_res = 0.0
    for x in basis:
        for y in basis:
            for u in basis:
                ref = x @ zs @ y @ zs @ u
                for mid1 in (zs, ws):
                    for mid2 in (zs, ws):
                        alt = x @ mid1 @ y @ mid2 @ u
                        inter_res = max(inter_res, hs_norm(alt - ref) / max(1.0, hs_norm(ref)))
    comm = is_commutative(A, tol)
    zw = hs_norm(z - w) <= tol.eq_tol * max(1.0, hs_norm(z))
    return PairingConsistency(
        derived_commutative=derived,
        derived_residual=worst,
        interchange_ok=inter_res <= tol.eq_tol,
        interchange_residual=inter_res,
        z_equals_w=zw,
        commutative=comm,
        consistent=(comm == zw),
    )


@dataclass(frozen=True, eq=False)
class DoubledAlgebra:
    """The space {x + x^T} in doubled dimension with the transported product.

    The product table carries mu(x, y) = (xy) + (xy)^T placed blockwise,
    which differs from the concrete block product exactly when A fails to
    commute (the concrete product gives (xy) + (yx)^T in the second block).
    """

    space: Subspace
    reps: tuple
    products: tuple  # products[i][j] = mu(rep_i, rep_j)
    matches_concrete: bool


def transpose_double(A: MatrixAlgebra, tol: ToleranceConfig | None = None) -> DoubledAlgebra:
    tol = tol or A.tol
    n = A.ambient

    def dbl(x):
        out = np.zeros((2 * n, 2 * n), complex)
        out[:n, :n] = x
        out[n:, n:] = x.T
        return out

    reps = tuple(dbl(b) / np.sqrt(2.0) for b in A.basis)
    space = orthonormalize(list(reps), tol, shape=(2 * n, 2 * n))
    products = tuple(
        tuple(dbl(bi @ bj) / 2.0 for bj in A.basis) for bi in A.basis
    )
    worst = 0.0
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            worst = max(worst, hs_norm(ri @ rj - products[i][j]))
    return DoubledAlgebra(space, reps, products, worst <= tol.eq_tol)


@dataclass(frozen=True, eq=False)
class BlockPairingReport:
    """Per-block pairing analysis of an algebra inside its generated TRO."""

    block_shapes: tuple
    corner_closed: tuple
    candidate_residuals: tuple  # |x (p_k q_k)* y - p_k (xy) q_k| per block
    left_commutative: tuple
    right_commutative: tuple
    one_sided_identity: tuple  # "left" | "right" | "both" | "none"
    reconstruction_residual: float
    ok: bool


def block_pairing_report(
    A: MatrixAlgebra, tol: ToleranceConfig | None = None, seed: int = 0
) -> BlockPairingReport:
    """Blockwise pairing elements p_k q_k and the product reconstruction.

    For each rectangular block of the generated TRO, the compression
    A_k = p_k A q_k should be an algebra under the pairing with z_k = p_k q_k,
    the one-sided pairings should commute, and the full product should be the
    sum of blockwise products.
    """
    tol = tol or A.tol
    w = generate_tro(A.space, tol)
    bs = block_decompose(w, tol, seed)
    shapes, closed, cand_res, lcomm, rcomm, oneid = [], [], [], [], [], []
    for pk, qk, shape in zip(bs.left_projections, bs.right_projections, bs.blocks):
        ak = [pk @ b @ qk for b in A.basis]
        ak_space = orthonormalize(ak, tol, shape=A.space.shape)
        zk = pk @ qk
        res_close = 0.0
        res_cand = 0.0
        for bi, ci in zip(A.basis, ak):
            for bj, cj in zip(A.basis, ak):
                prod = ci @ zk.conj().T @ cj
                if ak_space.dim:
                    res_close = max(
                        res_close,
                        hs_norm(prod - ak_space.project(prod)) / max(1.0, hs_norm(prod)),
                    )
                else:
                    res_close = max(res_close, hs_norm(prod))
                res_cand = max(
                    res_cand,
                    hs_norm(prod - pk @ (bi @ bj) @ qk) / max(1.0, hs_norm(prod)),
                )
        lres = rres = 0.0
        for ci in ak:
            for cj in ak:
                a1 = zk.conj().T @ ci @ zk.conj().T @ cj
                a2 = zk.conj().T @ cj @ zk.conj().T @ ci
                lres = max(lres, hs_norm(a1 - a2) / max(1.0, hs_norm(a1)))
                b1 = ci @ zk.conj().T @ cj @ zk.conj().T
                b2 = cj @ zk.conj().T @ ci @ zk.conj().T
                rres = max(rres, hs_norm(b1 - b2) / max(1.0, hs_norm(b1)))
        left_id = all(
            hs_norm(zk.conj().T @ c - c) <= tol.eq_tol * max(1.0, hs_norm(c)) for c in ak
        )
        right_id = all(
            hs_norm(c @ zk.conj().T - c) <= tol.eq_tol * max(1.0, hs_norm(c)) for c in ak
        )
        shapes.append(shape)
        closed.append(res_close <= tol.eq_tol)
        cand_res.append(res_cand)
        lcomm.append(lres <= tol.eq_tol)
        rcomm.append(rres <= tol.eq_tol)
        oneid.append(
            "both" if left_id and right_id else "left" if left_id else "right" if right_id else "none"
        )
    recon = 0.0
    for bi in A.basis:
        for bj in A.basis:
            total = sum(
                (pk @ bi @ qk) @ (pk @ bj @ qk)
                for pk, qk in zip(bs.left_projections, bs.right_projections)
            )
            ref = bi @ bj
            recon = max(recon, hs_norm(total - ref) / max(1.0, hs_norm(ref)))
    ok = (
        all(closed)
        and recon <= 10 * tol.eq_tol
        and all(r <= 10 * tol.eq_tol for r in cand_res)
    )
    return BlockPairingReport(
        tuple(shapes), tuple(closed), tuple(cand_res), tuple(lcomm), tuple(rcomm),
        tuple(oneid), recon, ok,
    )
