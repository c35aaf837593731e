"""Invariant subspaces and simultaneous triangularization.

A 3-commutative matrix algebra always has a common eigenvector: its
commutator ideal annihilates the algebra on both sides, so any nonzero
column of a nonzero commutator sits in the common kernel; if there are no
commutators the algebra commutes and iterated eigenspace refinement applies.
Deflating against a flag of such vectors triangularizes the algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import MatrixAlgebra, is_three_commutative
from .linalg import ToleranceConfig, as_matrix, hs_norm, null_space

__all__ = [
    "TriangularizationResult",
    "common_eigenvector",
    "triangularize",
    "nilpotent_part_strict",
]


def _verify_common_eigenvector(mats, v, tol: ToleranceConfig) -> bool:
    for b in mats:
        image = b @ v
        lam = np.vdot(v, image)
        if np.linalg.norm(image - lam * v) > 100 * tol.eq_tol * max(1.0, hs_norm(b)):
            return False
    return True


def _eigenspaces(b, tol):
    """Geometric eigenspaces of b, smallest first, deterministic order."""
    vals = np.linalg.eigvals(b)
    # cluster eigenvalues
    clusters = []
    for lam in sorted(vals, key=lambda z: (round(z.real, 7), round(z.imag, 7))):
        for c in clusters:
            if abs(lam - c[0]) <= 1e-7 * max(1.0, abs(lam)):
                break
        else:
            clusters.append((lam,))
    spaces = []
    n = b.shape[0]
    for (lam,) in clusters:
        _, s, vh = np.linalg.svd(b - lam * np.eye(n))
        cutoff = max(1e-8, 1e-8 * (s[0] if s.size else 1.0))
        rank = int(np.sum(s > cutoff))
        basis = vh[rank:].conj().T
        if basis.shape[1]:
            spaces.append((lam, basis))
    spaces.sort(key=lambda t: (t[1].shape[1], round(t[0].real, 7), round(t[0].imag, 7)))
    return spaces


def _common_eigvec_mats(mats, tol: ToleranceConfig, depth: int = 0):
    """Common eigenvector of a list of matrices, or None.

    Commutator columns cover the 3-commutative case; eigenspace refinement
    covers the commuting case.
    """
    mats = [as_matrix(m) for m in mats]
    n = mats[0].shape[0] if mats else 0
    if n == 0:
        return None
    live = [m for m in mats if hs_norm(m) > tol.eq_tol]
    if not live:
        v = np.zeros(n, complex)
        v[0] = 1.0
        return v
    # joint kernel: any vector killed by every element is a common eigenvector
    stacked = np.vstack(live)
    kernel = null_space(stacked, 1e-10)
    if kernel.shape[0]:
        v = kernel[0]
        v = v / np.linalg.norm(v)
        if _verify_common_eigenvector(live, v, tol):
            return v
    commutators = []
    for i, x in enumerate(live):
        for y in live[i + 1 :]:
            c = x @ y - y @ x
            if hs_norm(c) > 100 * tol.eq_tol * max(1.0, hs_norm(x @ y)):
                commutators.append(c)
    if commutators:
        for c in commutators:
            for col in range(n):
                v = c[:, col]
                nv = np.linalg.norm(v)
                if nv <= tol.eq_tol:
                    continue
                v = v / nv
                if _verify_common_eigenvector(live, v, tol):
                    return v
        return None
    # commuting family: refine through eigenspaces of successive elements
    pivot = None
    for m in live:
        lam0 = m[0, 0]
        if hs_norm(m - lam0 * np.eye(n)) > 100 * tol.eq_tol * max(1.0, hs_norm(m)):
            pivot = m
            break
    if pivot is None:
        v = np.zeros(n, complex)
        v[0] = 1.0
        return v
    if depth > n:
        return None
    for _, basis in _eigenspaces(pivot, tol):
        compressed = [basis.conj().T @ m @ basis for m in live]
        sub = _common_eigvec_mats(compressed, tol, depth + 1)
        if sub is not None:
            v = basis @ sub
            v = v / np.linalg.norm(v)
            if _verify_common_eigenvector(live, v, tol):
                return v
    return None


def common_eigenvector(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """A unit vector v with b v = lambda_b v for every basis element, or None."""
    tol = tol or A.tol
    return _common_eigvec_mats(list(A.basis), tol)


@dataclass(frozen=True, eq=False)
class TriangularizationResult:
    unitary: np.ndarray
    residual: float  # largest strictly-lower entry after conjugation


def triangularize(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """Unitary making every element of A upper triangular, or None on failure.

    Deflation: find a common eigenvector of the compressed algebra, prepend
    it to the flag, compress to the orthocomplement, repeat.
    """
    tol = tol or A.tol
    if not is_three_commutative(A, tol):
        warnings.warn("triangularize called on a non-3-commutative algebra", stacklevel=2)
    n = A.ambient
    flag = []
    basis_cols = np.eye(n, dtype=complex)  # orthonormal basis of the remaining space
    mats = [np.array(b) for b in A.basis]
    while basis_cols.shape[1] > 0:
        compressed = [basis_cols.conj().T @ m @ basis_cols for m in mats]
        v = _common_eigvec_mats(compressed, tol)
        if v is None:
            return None
        vec = basis_cols @ v
        vec = vec / np.linalg.norm(vec)
        flag.append(vec)
        # orthocomplement of the flag inside the current space
        proj = basis_cols.conj().T @ vec
        comp = basis_cols @ _null_complement(proj)
        basis_cols = comp
    unitary = np.stack(flag, axis=1)
    # re-orthonormalize defensively; the columns are orthonormal by construction
    qmat, rmat = np.linalg.qr(unitary)
    unitary = qmat * (np.diag(rmat) / np.abs(np.diag(rmat)))
    residual = 0.0
    for m in mats:
        rot = unitary.conj().T @ m @ unitary
        residual = max(residual, float(np.abs(np.tril(rot, -1)).max(initial=0.0)))
    if residual > 100 * tol.eq_tol:
        return None
    return TriangularizationResult(unitary, residual)


def _null_complement(vec):
    """Orthonormal basis of the orthocomplement of one unit vector."""
    k = vec.shape[0]
    m = np.column_stack([vec.reshape(-1, 1), np.eye(k, dtype=complex)])
    q, _ = np.linalg.qr(m)
    return q[:, 1:k]


def nilpotent_part_strict(
    K: MatrixAlgebra, unitary: np.ndarray | None = None, tol: ToleranceConfig | None = None
) -> bool:
    """After triangularization, does the basis have zero diagonal entries?"""
    tol = tol or K.tol
    if unitary is None:
        result = triangularize(K, tol)
        if result is None:
            return False
        unitary = result.unitary
    for b in K.basis:
        rot = unitary.conj().T @ b @ unitary
        if np.abs(np.diag(rot)).max(initial=0.0) > 100 * tol.eq_tol * max(1.0, hs_norm(b)):
            return False
    return True
