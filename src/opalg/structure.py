"""Simultaneous triangularization through the Jacobson radical.

McCoy's theorem: a matrix algebra A is triangularizable exactly when
A/rad A is commutative.  The kernel chain V_0 = 0, V_k = {v : r v in V_{k-1}
for every r in rad A} climbs to the whole space through A-invariant
subspaces, and on each layer V_k minus V_{k-1} the algebra acts through
A/rad A.  When that quotient is commutative it is also semisimple, so every
element acts on a layer as a scalar on each joint eigenspace, and the
eigenspaces of one fixed generic element h are those joint eigenspaces.
Every eigenvector of h compressed to a layer is then a common eigenvector
there, and V_{k-1} plus the span of any of them is invariant: one
eigensolve per layer gives the flag, in any order, with no clustering and
no rank cut.  When the quotient is not commutative no flag exists, and the
strictly-lower residual of the conjugated basis, the certificate, fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MatrixAlgebra, radical
from .linalg import ToleranceConfig, null_space

__all__ = [
    "TriangularizationResult",
    "common_eigenvector",
    "triangularize",
    "nilpotent_part_strict",
]


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


def _eigenvectors(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Unit columns w x, x running over the eigenvectors of the compression w* h w."""
    return w @ np.linalg.eig(w.conj().T @ h @ w)[1]


def common_eigenvector(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """A unit vector v with b v = lambda_b v for every basis element, or None.

    Every common eigenvector lies in ker(rad A), the first layer, and is an
    eigenvector of the generic element there.  Of those, the first that every
    basis element b moves off its line by at most 100 eq_tol max(1, |b|) is
    returned.
    """
    tol = tol or A.tol
    stack = A.space.stack
    vecs = _eigenvectors(next(_layers(A, tol)), _generic_element(A))
    images = stack @ vecs  # images[k, :, j] = b_k v_j
    lams = np.einsum("ij,kij->kj", vecs.conj(), images)
    moved = np.linalg.norm(images - lams[:, None] * vecs, axis=1)
    bound = 100 * tol.eq_tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    passing = np.flatnonzero((moved <= bound[:, None]).all(axis=0))
    return vecs[:, passing[0]] if len(passing) else None


@dataclass(frozen=True, eq=False)
class TriangularizationResult:
    unitary: np.ndarray
    residual: float  # largest strictly-lower entry after conjugation


def triangularize(A: MatrixAlgebra, tol: ToleranceConfig | None = None):
    """Unitary making every element of A upper triangular, or None when there is none.

    The flag is the eigenvectors of the generic element compressed to each
    layer of the kernel chain, one eigensolve per layer, made orthonormal by
    one QR, which keeps its leading spans.  When A/rad A is commutative they
    are common eigenvectors of the compressed algebra, so each leading span
    is invariant (module docstring).  The strictly-lower residual of the
    conjugated basis, at most 100 eq_tol, is the only test.
    """
    tol = tol or A.tol
    h = _generic_element(A)
    flag = np.concatenate([_eigenvectors(w, h) for w in _layers(A, tol)], axis=1)
    unitary = np.linalg.qr(flag)[0]
    rot = unitary.conj().T @ A.space.stack @ unitary
    residual = float(np.abs(np.tril(rot, -1)).max(initial=0.0))
    if residual > 100 * tol.eq_tol:
        return None
    return TriangularizationResult(unitary, residual)


def nilpotent_part_strict(
    K: MatrixAlgebra, unitary: np.ndarray | None = None, tol: ToleranceConfig | None = None
) -> bool:
    """After triangularization, does the basis have zero diagonal entries,
    each within 100 eq_tol max(1, |b|)?"""
    tol = tol or K.tol
    if unitary is None:
        result = triangularize(K, tol)
        if result is None:
            return False
        unitary = result.unitary
    stack = K.space.stack
    diags = np.abs(np.diagonal(unitary.conj().T @ stack @ unitary, axis1=1, axis2=2))
    bound = 100 * tol.eq_tol * np.maximum(1.0, np.linalg.norm(stack, axis=(1, 2)))
    return bool((diags.max(axis=1, initial=0.0) <= bound).all())
