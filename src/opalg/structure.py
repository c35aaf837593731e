"""Simultaneous triangularization through the Jacobson radical.

McCoy's theorem: a matrix algebra A is triangularizable exactly when
A/rad A is commutative.  The kernel chain V_0 = 0, V_k = {v : r v in V_{k-1}
for every r in rad A} climbs to the whole space through A-invariant
subspaces, and on each layer V_k minus V_{k-1} the algebra acts through
A/rad A.  There the compressed algebra is semisimple, so it commutes exactly
when it is simultaneously diagonalizable; one fixed generic element h
separates its joint eigenspaces.  Deflating against eigenvectors of h,
layer by layer, builds the flag, and a layer with no common eigenvector
means A is not triangularizable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MatrixAlgebra, radical
from .linalg import ToleranceConfig, hs_norm, null_space

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


def _layers(A: MatrixAlgebra, tol: ToleranceConfig):
    """Orthonormal columns of each layer U_k = V_k minus V_{k-1} of the kernel chain."""
    n = A.ambient
    rad = radical(A, tol).stack
    below = np.zeros((0, n), complex)  # conjugated orthonormal rows of V_{k-1}
    while len(below) < n:
        # v is in U_k when it is orthogonal to V_{k-1} and (1 - P_{k-1}) r v = 0 for every r
        off = rad - below.conj().T @ (below @ rad)
        layer = null_space(np.concatenate([off.reshape(-1, n), below]), tol.eq_tol, min_scale=1.0)
        if not len(layer):
            raise ArithmeticError("the radical's kernel chain stalled below the whole space")
        below = np.concatenate([below, layer.conj()])
        yield layer.T


def _generic_element(A: MatrixAlgebra) -> np.ndarray:
    """One fixed combination of the basis with generic coefficients."""
    rng = np.random.default_rng(0)
    c = rng.standard_normal(A.dim) + 1j * rng.standard_normal(A.dim)
    return np.tensordot(c, A.space.stack, axes=1)


def _deflate(A: MatrixAlgebra, w: np.ndarray, h: np.ndarray, tol: ToleranceConfig):
    """Right singular vectors of w* h w - lam for the first eigenvalue lam whose
    last vector is a common eigenvector of the compressed basis, or None."""
    comp = w.conj().T @ A.space.stack @ w
    hw = w.conj().T @ h @ w
    for lam in np.linalg.eigvals(hw):
        vh = np.linalg.svd(hw - lam * np.eye(len(hw)))[2]
        if _verify_common_eigenvector(comp, vh[-1].conj(), tol):
            return vh
    return None


def common_eigenvector(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """A unit vector v with b v = lambda_b v for every basis element, or None.

    Every common eigenvector lies in ker(rad A), the first layer.
    """
    tol = tol or A.tol
    w = next(_layers(A, tol))
    vh = _deflate(A, w, _generic_element(A), tol)
    return None if vh is None else w @ vh[-1].conj()


@dataclass(frozen=True, eq=False)
class TriangularizationResult:
    unitary: np.ndarray
    residual: float  # largest strictly-lower entry after conjugation


def triangularize(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """Unitary making every element of A upper triangular, or None when there is none.

    Each layer of the kernel chain is deflated in turn: a common eigenvector
    of the compressed basis joins the flag and the layer shrinks to its
    orthocomplement.
    """
    tol = tol or A.tol
    h = _generic_element(A)
    flag = []
    for w in _layers(A, tol):
        while w.shape[1]:
            vh = _deflate(A, w, h, tol)
            if vh is None:
                return None
            flag.append(w @ vh[-1].conj())
            w = w @ vh[:-1].conj().T
    # the flag is orthonormal by construction; QR keeps it so without moving its spans
    unitary = np.linalg.qr(np.column_stack(flag))[0]
    rot = unitary.conj().T @ A.space.stack @ unitary
    residual = float(np.abs(np.tril(rot, -1)).max(initial=0.0))
    if residual > 100 * tol.eq_tol:
        return None
    return TriangularizationResult(unitary, residual)


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
