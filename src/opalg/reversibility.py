"""Decision procedures built on the ternary pairing x z* y.

Operator algebra products on a space X correspond to contractions z in the
injective envelope with X z* X inside X, the product being x z* y
(Kaneda-Paulsen).  The product and the reversed product are two targets of
one linear system, posed on the algebra's basis transported into its
envelope; they share one factorization, taken through the system's
Kronecker form without building it.  The solution for the reversed product
decides reversibility, for every algebra alike: it certifies it, and
nonexistence inside an exact envelope refutes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cb
from .algebra import MatrixAlgebra, is_commutative
from .linalg import (
    ToleranceConfig,
    as_matrix,
    contains,
    hs_norm,
    max_projection_residual,
    max_relative_gap,
    numerical_rank,
    op_norm,
    product_stack,
)
from .tro import EnvelopeResult, TROSpace, injective_envelope

__all__ = [
    "PairingSolution",
    "Pairings",
    "ReversibilityVerdict",
    "solve_pairing",
    "certify_reversal_element",
    "decide_reversible",
    "PairingConsistency",
    "pairing_consistency",
]


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


class Pairings:
    """The pairing solutions for a product table mu and for its reverse.

    Both solve b_i v* b_j = mu_ij for v in one TRO, with mu_ij for the
    product and mu_ji for the reversed product.  The map v -> b_i v* b_j is
    conjugate linear, so v is written as sum_k conj(d_k) z_k: the system
    sum_k d_k b_i z_k* b_j = mu_ij is then complex linear in d.  With rows
    (i, a, j, c), its matrix is (D (x) C) E for D the stacked b_i, C the
    stacked b_j^T and E the columns z_k*, all read row-major.  With
    D = U1 S1 V1* and C = U2 S2 V2* it is (U1 (x) U2) M, where M has columns
    S1 V1* z_k* conj(V2) S2 and at most pq rows.  One SVD of M, truncated at
    eq_tol * max(1, s_0), serves both tables, each entering as U1* T conj(U2)
    for T the table as a dp x dq matrix: it gives each minimum-norm solution
    and the null vectors, each of which yields the two real directions n and
    i n of the solution set.  The residual is read from the products,
    D Y C^T - T for Y = sum_k d_k z_k*.  Each solution is computed the first
    time it is read.
    """

    def __init__(self, basis, mu, z_space: TROSpace, tol: ToleranceConfig):
        self.basis = np.asarray(basis, dtype=complex)
        self.mu = np.asarray(mu, dtype=complex)
        self.z_space, self.tol = z_space, tol
        self._factors = None  # (D, C, U1, U2, u, s, vh, rank) with M = u s vh, none for the zero TRO
        t = z_space.dim
        if t == 0:
            return
        B = self.basis
        d, p, q = B.shape
        D, C = B.reshape(d * p, q), B.transpose(0, 2, 1).reshape(d * q, p)
        u1, s1, vh1 = np.linalg.svd(D, full_matrices=False)
        u2, s2, vh2 = np.linalg.svd(C, full_matrices=False)
        m = ((s1[:, None] * vh1) @ z_space.space.stack.conj().transpose(0, 2, 1) @ (vh2.T * s2)).reshape(t, -1).T
        u, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < t)
        self._factors = (D, C, u1, u2, u, s, vh, numerical_rank(s, tol.eq_tol, min_scale=1.0))

    @cached_property
    def product(self) -> PairingSolution:
        return self._solve(self.mu)

    @cached_property
    def reversed(self) -> PairingSolution:
        return self._solve(self.mu.transpose(1, 0, 2, 3))

    def _solve(self, mu) -> PairingSolution:
        if self._factors is None:
            return PairingSolution(None, np.inf, np.inf, 0, "NONE", inconsistent=True, op_norm_lower=np.inf)
        tol, Z, t = self.tol, self.z_space.space.stack, self.z_space.dim
        D, C, u1, u2, u, s, vh, rank = self._factors
        target = mu.transpose(0, 2, 1, 3).reshape(D.shape[0], C.shape[0])
        d = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ (u1.conj().T @ target @ u2.conj()).ravel()) / s[:rank])
        # d and the null vectors conj(vh[rank:]) become elements through conj(.) . z
        flat = Z.reshape(t, -1)
        particular = (d.conj() @ flat).reshape(Z.shape[1:])
        # the residual from the products: Y = sum_k d_k z_k* is particular*
        raw = float(np.linalg.norm(D @ particular.conj().T @ C.T - target))
        scale = max(1.0, float(np.linalg.norm(target)))
        affine_dim = 2 * (t - rank)

        if raw > tol.eq_tol * scale:
            return PairingSolution(None, raw / scale, np.inf, affine_dim, "NONE", inconsistent=True, op_norm_lower=np.inf)

        null_elements = (vh[rank:] @ flat).reshape((-1,) + Z.shape[1:])
        directions = tuple(e for n in null_elements for e in (n, 1j * n))
        res = cb.min_opnorm_affine(cb.AffineMatrixSet(particular, directions, 0.0), tol)
        if res.min_norm > 1.0 + tol.sdp_tol:
            return PairingSolution(None, raw / scale, res.min_norm, affine_dim, "NONE", op_norm_lower=res.lower)
        element = res.argmin
        B = self.basis
        final_res = max_relative_gap(mu, product_stack(B @ element.conj().T, B).reshape(mu.shape))
        exits = all(
            op_norm(element + eps * direction) > 1.0 + tol.sdp_tol
            for direction in directions
            for eps in (0.01, -0.01)
        )
        status = "UNIQUE_IN_BALL" if exits else "FOUND"  # vacuously unique with no directions
        return PairingSolution(element, final_res, res.min_norm, affine_dim, status, op_norm_lower=res.lower)


def solve_pairing(A: MatrixAlgebra, env: EnvelopeResult, tol: ToleranceConfig | None = None) -> Pairings:
    """Both pairing solutions of A in its envelope, from one factorization.

    The system is posed on A's basis transported into the envelope by the
    embedding (the identity for an exact envelope), which the envelope
    contains even when blocks were deleted, and the product table is read
    off A's structure tensor.
    """
    tol = tol or A.tol
    basis = env.embedding.image_stack
    if basis.shape != (A.dim,) + env.envelope.space.shape:
        raise ValueError("the envelope's embedding must carry A's basis into the envelope")
    return Pairings(basis, np.tensordot(A.structure, basis, axes=1), env.envelope, tol)


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
    B, d, n = A.space.stack, A.dim, A.ambient
    prods = product_stack(B @ w, B)
    # b_i w b_j against b_j b_i, the product stack of B with itself transposed in (i, j)
    targets = product_stack(B, B).reshape(d, d, n, n).transpose(1, 0, 2, 3).reshape(prods.shape)
    return max(max_relative_gap(targets, prods), max_projection_residual(A.space, prods)) <= tol.eq_tol


@dataclass(frozen=True, eq=False)
class ReversibilityVerdict:
    """The reversibility answer, read from the reversed solution of
    `pairings`; that solution's element certifies a YES."""

    reversible: str  # "YES" | "NO" | "UNDECIDED"
    notes: tuple
    pairings: Pairings


def decide_reversible(
    A: MatrixAlgebra, tol: ToleranceConfig | None = None, seed: int = 0, envelope=None
) -> ReversibilityVerdict:
    """Is A with reversed multiplication still an operator algebra?

    The reversed-product pairing system is solved in the envelope, and the
    verdict is read from that solve alone: a solution in the ball certifies
    YES.  NO needs an exact envelope and a lower bound on the least norm
    above 1 + sdp_tol (infinite for an inconsistent system), which the dual
    witness certifies; a candidate envelope, or a bracket that contains 1,
    leaves it UNDECIDED.  Only the reversed solution is computed; the
    product one is there to be read.
    """
    tol = tol or A.tol
    env = envelope if envelope is not None else injective_envelope(A.space, tol, seed)
    pairings = solve_pairing(A, env, tol)
    sol = pairings.reversed
    if sol.status != "NONE":
        return ReversibilityVerdict("YES", (), pairings)
    if env.status != "EXACT":
        return ReversibilityVerdict("UNDECIDED", ("no solution, but the envelope is only a candidate",), pairings)
    bracket = f"minimal pairing norm in [{sol.op_norm_lower:.9g}, {sol.op_norm:.9g}]"
    if sol.op_norm_lower > 1.0 + tol.sdp_tol:
        reason = "pairing system inconsistent" if sol.inconsistent else bracket + ", above the ball"
        return ReversibilityVerdict("NO", (reason,), pairings)
    return ReversibilityVerdict("UNDECIDED", (bracket + ", which contains 1",), pairings)


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


def _swap_gap(side: np.ndarray) -> float:
    """Largest relative gap between s_x s_y and s_y s_x over a stack s."""
    d, n = side.shape[0], side.shape[1]
    pairs = product_stack(side, side).reshape(d, d, n, -1)
    return max_relative_gap(pairs, pairs.transpose(1, 0, 2, 3))


def pairing_consistency(A: MatrixAlgebra, z, w, tol: ToleranceConfig | None = None) -> PairingConsistency:
    """Check the consequences of having both pairing elements z and w.

    The four one-sided pairings must be commutative, any middle factor in a
    triple product may switch between z and w, and z = w exactly when A is
    commutative.
    """
    tol = tol or A.tol
    z = as_matrix(z)
    w = as_matrix(w)
    B = A.space.stack
    zs, ws = z.conj().T, w.conj().T
    sides = {"right_by_z": B @ zs, "right_by_w": B @ ws, "left_by_z": zs @ B, "left_by_w": ws @ B}
    residuals = {name: _swap_gap(side) for name, side in sides.items()}
    derived = {name: res <= tol.eq_tol for name, res in residuals.items()}

    def triples(mid1, mid2):  # x mid1 y mid2 u over basis triples (x, y, u)
        return product_stack(product_stack(B @ mid1, B @ mid2), B)

    ref = triples(zs, zs)
    inter_res = max(max_relative_gap(ref, triples(m1, m2)) for m1, m2 in ((zs, ws), (ws, zs), (ws, ws)))
    comm = is_commutative(A, tol)
    zw = hs_norm(z - w) <= tol.eq_tol * max(1.0, hs_norm(z))
    return PairingConsistency(
        derived_commutative=derived,
        derived_residual=max(residuals.values()),
        interchange_ok=inter_res <= tol.eq_tol,
        interchange_residual=inter_res,
        z_equals_w=zw,
        commutative=comm,
        consistent=(comm == zw),
    )
