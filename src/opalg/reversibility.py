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
    adjoints,
    as_matrix,
    contains,
    hs_norm,
    max_projection_residual,
    max_relative_gap,
    numerical_rank,
    op_norm,
    product_stack,
    relative_gaps,
)
from .tro import EnvelopeResult, TROSpace, injective_envelopes

__all__ = [
    "PairingSolution",
    "Pairings",
    "ReversibilityVerdict",
    "solve_pairing",
    "solve_pairings",
    "certify_reversal_element",
    "decide_reversible",
    "decide_reversibles",
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
    D Y C^T - T for Y = sum_k d_k z_k*.

    Systems of one shape (d, p, q and TRO dimension t) are factored and
    solved as one stack, :func:`Pairings.batch`; a single system is a batch
    of one.  A system with no null direction has the minimum-norm solution
    as its only one, so its least norm is that solution's, taken stacked
    with the others'; a system with null directions minimizes the norm
    over them on its own.  Each table's solutions are computed, for the
    whole batch, the first time one member's is read.
    """

    def __init__(self, basis, mu, z_space: TROSpace, tol: ToleranceConfig):
        basis, mu = np.asarray(basis, dtype=complex), np.asarray(mu, dtype=complex)
        self._batch, self._at = _PairingBatch(basis[None], mu[None], z_space.space.stack[None], tol), 0

    @classmethod
    def batch(cls, basis, mu, z_spaces, tol: ToleranceConfig) -> list:
        """The pairings of stacked systems: bases (G, d, p, q), tables
        (G, d, d, p, q) and G TROs of one dimension, one factorization."""
        z = np.stack([w.space.stack for w in z_spaces])
        shared = _PairingBatch(np.asarray(basis, dtype=complex), np.asarray(mu, dtype=complex), z, tol)
        members = [cls.__new__(cls) for _ in z_spaces]
        for at, member in enumerate(members):
            member._batch, member._at = shared, at
        return members

    @property
    def product(self) -> PairingSolution:
        return self._batch.product[self._at]

    @property
    def reversed(self) -> PairingSolution:
        return self._batch.reversed[self._at]


class _PairingBatch:
    """The factorization of G pairing systems of one shape, and both tables' solutions."""

    def __init__(self, basis, mu, z, tol: ToleranceConfig):
        self.basis, self.mu, self.z, self.tol = basis, mu, z, tol
        self._factors = None  # (D, C, U1, U2, u, s, vh, rank) with M = u s vh, none for the zero TRO
        g, t = z.shape[:2]
        if t == 0:
            return
        _, d, p, q = basis.shape
        D, C = basis.reshape(g, d * p, q), np.swapaxes(basis, -1, -2).reshape(g, d * q, p)
        u1, s1, vh1 = np.linalg.svd(D, full_matrices=False)
        u2, s2, vh2 = np.linalg.svd(C, full_matrices=False)
        left, right = s1[..., None] * vh1, np.swapaxes(vh2, -1, -2) * s2[:, None, :]
        m = np.swapaxes((left[:, None] @ adjoints(z) @ right[:, None]).reshape(g, t, -1), -1, -2)
        u, s, vh = np.linalg.svd(m, full_matrices=m.shape[1] < t)
        self._factors = (D, C, u1, u2, u, s, vh, numerical_rank(s, tol.eq_tol, min_scale=1.0))

    @cached_property
    def product(self) -> tuple:
        return self._solve(self.mu)

    @cached_property
    def reversed(self) -> tuple:
        return self._solve(np.swapaxes(self.mu, 1, 2))

    def _solve(self, mu) -> tuple:
        g, t = self.z.shape[:2]
        if self._factors is None:
            return (PairingSolution(None, np.inf, np.inf, 0, "NONE", inconsistent=True, op_norm_lower=np.inf),) * g
        tol, B, Z = self.tol, self.basis, self.z
        D, C, u1, u2, u, s, vh, rank = self._factors
        target = np.swapaxes(mu, 2, 3).reshape(g, D.shape[1], C.shape[1])
        rhs = (adjoints(u) @ (adjoints(u1) @ target @ u2.conj()).reshape(g, -1, 1))[..., 0]
        kept = np.arange(s.shape[1]) < rank[:, None]
        coeffs = np.divide(rhs, s, out=np.zeros_like(rhs), where=kept)
        d = (adjoints(vh[:, : s.shape[1]]) @ coeffs[..., None])[..., 0]
        # d and the null vectors conj(vh[rank:]) become elements through conj(.) . z
        flat = Z.reshape(g, t, -1)
        particular = (d.conj()[:, None] @ flat).reshape(g, *Z.shape[2:])
        # the residual from the products: Y = sum_k d_k z_k* is particular*
        raw = np.linalg.norm(D @ adjoints(particular) @ np.swapaxes(C, -1, -2) - target, axis=(1, 2))
        scale = np.maximum(1.0, np.linalg.norm(target, axis=(1, 2)))
        consistent = raw <= tol.eq_tol * scale

        # each consistent system's (element, least norm found, lower bound, status); with no
        # null direction the minimum-norm solution is the only one, so its norm is the least
        found = {}
        unique = np.flatnonzero(consistent & (rank == t)).tolist()
        norms = np.linalg.svd(particular[unique], compute_uv=False)[:, 0].tolist() if unique else []
        for i, norm in zip(unique, norms):
            found[i] = (particular[i], norm, norm, "UNIQUE_IN_BALL")
        for i in np.flatnonzero(consistent & (rank < t)).tolist():
            found[i] = _least_norm(particular[i], vh[i, rank[i] :] @ flat[i], tol)
        inside = sorted(i for i, (_, norm, _, _) in found.items() if norm <= 1.0 + tol.sdp_tol)
        final_res = {}
        if inside:
            Bi, elements = B[inside], np.stack([found[i][0] for i in inside])
            prods = product_stack(Bi @ adjoints(elements)[:, None], Bi).reshape(mu[inside].shape)
            gaps = relative_gaps(mu[inside], prods).reshape(len(inside), -1).max(axis=1, initial=0.0)
            final_res = dict(zip(inside, gaps.tolist()))

        out = []
        for i in range(g):
            affine_dim, rel = 2 * (t - int(rank[i])), float(raw[i] / scale[i])
            if not consistent[i]:
                out.append(PairingSolution(None, rel, np.inf, affine_dim, "NONE", True, np.inf))
                continue
            element, norm, lower, status = found[i]
            if i in final_res:
                out.append(PairingSolution(element, final_res[i], norm, affine_dim, status, op_norm_lower=lower))
            else:
                out.append(PairingSolution(None, rel, norm, affine_dim, "NONE", op_norm_lower=lower))
        return tuple(out)


def _least_norm(particular, null_elements, tol: ToleranceConfig) -> tuple:
    """(element, least norm found, lower bound, status) over particular plus
    the real span of the null elements n and i n: the minimizer, and
    UNIQUE_IN_BALL when every sampled step along a direction leaves the
    ball."""
    directions = tuple(e for n in null_elements.reshape(-1, *particular.shape) for e in (n, 1j * n))
    res = cb.min_opnorm_affine(cb.AffineMatrixSet(particular, directions, 0.0), tol)
    element = res.argmin
    exits = res.min_norm <= 1.0 + tol.sdp_tol and all(
        op_norm(element + eps * direction) > 1.0 + tol.sdp_tol
        for direction in directions
        for eps in (0.01, -0.01)
    )
    return element, res.min_norm, res.lower, "UNIQUE_IN_BALL" if exits else "FOUND"


def solve_pairing(A: MatrixAlgebra, env: EnvelopeResult, tol: ToleranceConfig | None = None) -> Pairings:
    """Both pairing solutions of A in its envelope: :func:`solve_pairings` as a batch of one."""
    return solve_pairings([A], [env], tol)[0]


def solve_pairings(algebras, envelopes, tol: ToleranceConfig | None = None) -> list:
    """Both pairing solutions of each algebra in its envelope; the systems
    of one shape share one stacked factorization.

    Each system is posed on the algebra's basis transported into the
    envelope by the embedding (the identity for an exact envelope), which
    the envelope contains even when blocks were deleted, and the product
    table is read off the algebra's structure tensor.
    """
    tol = tol or algebras[0].tol
    groups = {}
    for i, (A, env) in enumerate(zip(algebras, envelopes)):
        basis = env.embedding.image_stack
        if basis.shape != (A.dim,) + env.envelope.space.shape:
            raise ValueError("the envelope's embedding must carry A's basis into the envelope")
        groups.setdefault((basis.shape, env.envelope.dim), []).append(i)
    out = [None] * len(algebras)
    for idx in groups.values():
        basis = np.stack([envelopes[i].embedding.image_stack for i in idx])
        c = np.stack([algebras[i].structure for i in idx])
        g, d, p, q = basis.shape
        mu = (c.reshape(g, d * d, d) @ basis.reshape(g, d, p * q)).reshape(g, d, d, p, q)
        for i, member in zip(idx, Pairings.batch(basis, mu, [envelopes[i].envelope for i in idx], tol)):
            out[i] = member
    return out


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

    :func:`decide_reversibles` as a batch of one.
    """
    return decide_reversibles([A], tol, seed, None if envelope is None else [envelope])[0]


def decide_reversibles(algebras, tol: ToleranceConfig | None = None, seed: int = 0, envelopes=None) -> list:
    """Is each algebra with reversed multiplication still an operator
    algebra?  The algebras share one dimension and ambient.

    The reversed-product pairing system is solved in the envelope, and the
    verdict is read from that solve alone: a solution in the ball certifies
    YES.  NO needs an exact envelope and a lower bound on the least norm
    above 1 + sdp_tol (infinite for an inconsistent system), which the dual
    witness certifies; a candidate envelope, or a bracket that contains 1,
    leaves it UNDECIDED.  Only the reversed solutions are computed; the
    product ones are there to be read.  The envelopes, unless given, come
    from :func:`injective_envelopes`, and the solves from
    :func:`solve_pairings`, so systems of one shape are solved stacked.
    """
    tol = tol or algebras[0].tol
    if envelopes is None:
        envelopes = injective_envelopes([A.space for A in algebras], tol, seed)
    return [_verdict(p, env, tol) for p, env in zip(solve_pairings(algebras, envelopes, tol), envelopes)]


def _verdict(pairings: Pairings, env: EnvelopeResult, tol: ToleranceConfig) -> ReversibilityVerdict:
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
