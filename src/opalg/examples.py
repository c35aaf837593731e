"""Generators for the built-in algebra corpus.

Indices in names and comments are 1-based to match the usual matrix-unit
notation e_ij; the code itself is 0-based.
"""

from __future__ import annotations

import numpy as np

from .algebra import MatrixAlgebra, NotAnAlgebraError, verify_algebra
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    as_matrix,
    close_span,
    hs_norm,
    orthonormalize,
    product_stack,
)

__all__ = [
    "matrix_unit",
    "car_pair",
    "car_pair_symmetry_unitary",
    "anticommuting_generators",
    "anticommuting_family",
    "shift_family",
    "isometry_algebra",
    "isometry_reversal_element",
    "car_generators",
    "strict_upper",
    "upper_triangular",
    "diagonal_algebra",
    "random_triangular_algebra",
    "random_triangular_spans",
    "corpus",
]


def matrix_unit(n: int, i: int, j: int, m: int | None = None) -> np.ndarray:
    """e_ij in M_{n,m} (1-based indices)."""
    out = np.zeros((n, m or n), complex)
    out[i - 1, j - 1] = 1.0
    return out


def car_pair(tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """span{U, V, UV} in M_4 for the anticommuting partial isometries
    U = e13 + e24 and V = e12 - e34.

    U and V satisfy the two-generator canonical anticommutation relations;
    the algebra they generate is anticommuting, reversible, symmetric, and
    not commutative.
    """
    tol = tol or DEFAULT_TOL
    u = matrix_unit(4, 1, 3) + matrix_unit(4, 2, 4)
    v = matrix_unit(4, 1, 2) - matrix_unit(4, 3, 4)
    return verify_algebra([u, v, u @ v], tol)


def car_pair_symmetry_unitary() -> np.ndarray:
    """Unitary conjugating every element x of car_pair() to -x^T."""
    return (
        matrix_unit(4, 4, 1) + matrix_unit(4, 3, 2) - matrix_unit(4, 2, 3) - matrix_unit(4, 1, 4)
    )


def anticommuting_generators(n: int) -> list:
    """The 2n generators of :func:`anticommuting_family` in M_{2n+2}.

    u_{2i-1} carries row vector e_i (x) e_1 and column vector e_i (x) e_2;
    u_{2i} carries e_i (x) e_2 and -(e_i (x) e_1).  Then u_a u_b is a scalar
    multiple of e_{1,2n+2} and vanishes for |a - b| > 1.
    """
    size = 2 * n + 2
    mats = []
    for i in range(n):
        row1 = np.zeros(2 * n)
        row1[2 * i] = 1.0  # e_i (x) e_1
        col1 = np.zeros(2 * n)
        col1[2 * i + 1] = 1.0  # e_i (x) e_2
        for row, col in ((row1, col1), (col1, -row1)):
            m = np.zeros((size, size), complex)
            m[0, 1 : 2 * n + 1] = row
            m[1 : 2 * n + 1, size - 1] = col
            mats.append(m)
    return mats


def anticommuting_family(n: int, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """The 2n anticommuting generators of :func:`anticommuting_generators`
    plus their common product e_{1,2n+2} in M_{2n+2}."""
    tol = tol or DEFAULT_TOL
    if n < 1:
        raise ValueError("n must be at least 1")
    return verify_algebra([matrix_unit(2 * n + 2, 1, 2 * n + 2)] + anticommuting_generators(n), tol)


def shift_family(n: int, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """Variant family in M_{n+2}: u_i has row e_i and column (-1)^(k+1) e_{k+1}.

    The column index wraps around cyclically, so every generator keeps a
    nonzero column.  Pairwise products land in span{e_{1,n+2}} but the
    generators no longer anticommute for n >= 3.
    """
    tol = tol or DEFAULT_TOL
    if n < 1:
        raise ValueError("n must be at least 1")
    size = n + 2
    mats = [matrix_unit(size, 1, size)]
    for k in range(1, n + 1):
        m = np.zeros((size, size), complex)
        m[0, k] = 1.0
        m[(k % n) + 1, size - 1] = (-1.0) ** (k + 1)
        mats.append(m)
    return verify_algebra(mats, tol)


def isometry_algebra(s, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """span{u, v, uv, vu} in M_4(M_m) with u = e12 + e34 and v = e13 + e24 (x) s.

    s must be an isometry (s* s = 1).  Then uv = e14 (x) s and vu = e14 (x) 1,
    the algebra is 3-nilpotent, and it is reversible without having any
    strictly anticommuting element.
    """
    tol = tol or DEFAULT_TOL
    s = as_matrix(s)
    m = s.shape[0]
    if s.shape[0] != s.shape[1]:
        raise ValueError("square isometry expected")
    if np.linalg.norm(s.conj().T @ s - np.eye(m)) > tol.eq_tol * m:
        raise ValueError("s must be an isometry")
    eye = np.eye(m, dtype=complex)
    u = np.kron(matrix_unit(4, 1, 2), eye) + np.kron(matrix_unit(4, 3, 4), eye)
    v = np.kron(matrix_unit(4, 1, 3), eye) + np.kron(matrix_unit(4, 2, 4), s)
    return verify_algebra([u, v, u @ v, v @ u], tol)


def isometry_reversal_element(s) -> np.ndarray:
    """The middle element 0 + s* + s + 0 with x w y = y x on isometry_algebra(s)."""
    s = as_matrix(s)
    m = s.shape[0]
    blocks = [np.zeros((m, m), complex), s.conj().T, s, np.zeros((m, m), complex)]
    out = np.zeros((4 * m, 4 * m), complex)
    for k, b in enumerate(blocks):
        out[k * m : (k + 1) * m, k * m : (k + 1) * m] = b
    return out


def car_generator_matrices(n: int) -> list:
    """Jordan-Wigner matrices for n anticommutation generators in M_{2^n}.

    They satisfy c_i c_j + c_j c_i = 0 and c_i c_j* + c_j* c_i = delta_ij.
    """
    if not 1 <= n <= 5:
        raise ValueError("n must be between 1 and 5")
    sz = np.array([[1, 0], [0, -1]], complex)
    lower = np.array([[0, 1], [0, 0]], complex)
    eye = np.eye(2, dtype=complex)
    gens = []
    for k in range(n):
        factors = [sz] * k + [lower] + [eye] * (n - k - 1)
        m = factors[0]
        for f in factors[1:]:
            m = np.kron(m, f)
        gens.append(m)
    return gens


def car_generators(n: int, tol: ToleranceConfig | None = None):
    """Span of n anticommutation generators and the algebra they generate."""
    tol = tol or DEFAULT_TOL
    gens = car_generator_matrices(n)
    span = orthonormalize(gens, tol)
    return span, verify_algebra(close_span(gens, lambda w: product_stack(w, w), tol), tol)


def strict_upper(n: int, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """All strictly upper triangular matrices in M_n."""
    tol = tol or DEFAULT_TOL
    if n < 2:
        raise ValueError("n must be at least 2")
    mats = [matrix_unit(n, i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return verify_algebra(mats, tol)


def upper_triangular(n: int, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    """All upper triangular matrices in M_n (diagonal included)."""
    tol = tol or DEFAULT_TOL
    mats = [matrix_unit(n, i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return verify_algebra(mats, tol)


def diagonal_algebra(n: int, tol: ToleranceConfig | None = None) -> MatrixAlgebra:
    tol = tol or DEFAULT_TOL
    return verify_algebra([matrix_unit(n, i, i) for i in range(1, n + 1)], tol)


def _draws(seed: int, upper: np.ndarray, dim: int, tol: ToleranceConfig):
    """The nonempty draws of one seed's generator, at most 200 draws in all:
    1 to dim random matrices on the strictly upper mask ``upper`` each, half
    of them sparsified, with the ones that vanish dropped.  A matrix's real
    and imaginary parts come from one call that reads the generator in the
    order two calls would, real part first."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        mats = []
        for _ in range(int(rng.integers(1, dim + 1))):
            re, im = rng.standard_normal((2, *upper.shape))
            m = np.where(upper, re + 1j * im, 0.0)
            if rng.random() < 0.5:
                m = m * (rng.random(upper.shape) < 0.45)
            if hs_norm(m) > tol.eq_tol:
                mats.append(m)
        if mats:
            yield mats
    raise ArithmeticError("could not sample an algebra within the dimension bound")


def random_triangular_spans(n: int, dim: int, seeds, tol: ToleranceConfig | None = None) -> list:
    """The span of :func:`random_triangular_algebra` for each seed; the
    draws of all seeds are closed together, one batch per round of draws.

    Each seed keeps its own generator, and a closure above ``dim`` draws
    again from it, so a span does not depend on the other seeds.  Every span
    is certified closed under the product by the residual of its closure's
    confirming round, with the rule of :func:`verify_algebra`.
    """
    tol = tol or DEFAULT_TOL
    upper = np.triu(np.ones((n, n), bool), 1)
    streams = [_draws(s, upper, dim, tol) for s in seeds]
    spans = [None] * len(streams)
    pending = list(range(len(streams)))
    while pending:
        draws = [next(streams[t]) for t in pending]
        seed = np.zeros((len(draws), max(map(len, draws)), n, n), complex)
        for i, mats in enumerate(draws):
            seed[i, : len(mats)] = mats
        basis, dims, residual = close_span(seed, lambda w: product_stack(w, w), tol)
        kept = (dims > 0) & (dims <= dim)
        worst = residual[kept].max(initial=0.0)
        if worst > tol.eq_tol:
            raise NotAnAlgebraError(f"closed span has projection residual {worst:.3e}", residual=float(worst))
        for i in np.flatnonzero(kept):
            spans[pending[i]] = Subspace(n, n, basis[i, : dims[i]].reshape(-1, n, n))
        pending = [t for t, ok in zip(pending, kept) if not ok]
    return spans


def random_triangular_algebra(
    n: int, dim: int, seed: int, tol: ToleranceConfig | None = None
) -> MatrixAlgebra:
    """Random product-closed span of strictly upper triangular matrices.

    Draws random strictly upper matrices, closes the span under products,
    and retries while the closure exceeds the requested dimension.  Half of
    the draws are sparsified first; dense multi-generator draws almost
    always close onto the full strictly upper algebra, so sparse supports
    are what produce variety at small dimensions.
    """
    tol = tol or DEFAULT_TOL
    return verify_algebra(random_triangular_spans(n, dim, [seed], tol)[0], tol)


def corpus(tol: ToleranceConfig | None = None):
    """Named algebras used by the consistency sweep and the CLI."""
    tol = tol or DEFAULT_TOL
    entries = [
        ("car-pair", car_pair(tol)),
        ("anticommuting-family-1", anticommuting_family(1, tol)),
        ("anticommuting-family-2", anticommuting_family(2, tol)),
        ("anticommuting-family-3", anticommuting_family(3, tol)),
        ("shift-family-1", shift_family(1, tol)),
        ("shift-family-2", shift_family(2, tol)),
        ("shift-family-3", shift_family(3, tol)),
        ("shift-family-4", shift_family(4, tol)),
        ("isometry-identity", isometry_algebra(np.eye(1), tol)),
        ("isometry-rotated", isometry_algebra(1j * np.eye(1), tol)),
        ("car-span-algebra-2", car_generators(2, tol)[1]),
        ("car-span-algebra-3", car_generators(3, tol)[1]),
        ("strict-upper-2", strict_upper(2, tol)),
        ("strict-upper-3", strict_upper(3, tol)),
        ("strict-upper-4", strict_upper(4, tol)),
        ("upper-triangular-2", upper_triangular(2, tol)),
        ("diagonal-2", diagonal_algebra(2, tol)),
        ("diagonal-3", diagonal_algebra(3, tol)),
        ("single-nilpotent", verify_algebra([matrix_unit(2, 1, 2)], tol)),
        ("single-projection", verify_algebra([matrix_unit(2, 1, 1)], tol)),
        ("split-pair", verify_algebra(
            [np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
             matrix_unit(4, 3, 4)], tol)),
    ]
    for seed in (11, 12, 13):
        entries.append((f"random-triangular-4-{seed}", random_triangular_algebra(4, 4, seed, tol)))
    return entries
