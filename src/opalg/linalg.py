"""Dense complex linear algebra on subspaces of matrices.

Everything operates on plain 2-D complex numpy arrays.  A :class:`Subspace`
carries an orthonormal basis under the Hilbert-Schmidt inner product
``<a, b> = trace(b^* a)``, which is linear in the first argument.  All
equality decisions are residual tests against a :class:`ToleranceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Subspace",
    "LinearMapOnSubspace",
    "as_matrix",
    "hs_inner",
    "hs_norm",
    "op_norm",
    "numerical_rank",
    "row_basis",
    "orthonormalize",
    "close_span",
    "contains",
    "projection_residual",
    "null_space",
    "sqrt_psd",
    "amplify",
    "identity_map",
    "product_stack",
    "max_projection_residual",
    "random_unitary",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every decision procedure.

    eq_tol bounds residuals treated as equality, psd_tol bounds how negative
    an eigenvalue may be before a matrix stops counting as positive
    semidefinite, sdp_tol is the feasibility residual for the semidefinite
    solvers, and max_iter caps their iteration count.
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    sdp_tol: float = 1e-7
    max_iter: int = 50000

    def __post_init__(self) -> None:
        if min(self.eq_tol, self.psd_tol, self.sdp_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.eq_tol > self.sdp_tol:
            raise ValueError("eq_tol must not exceed sdp_tol")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array."""
    a = np.asarray(x, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(b^* a)."""
    return complex(np.vdot(b, a))


def hs_norm(a) -> float:
    return float(np.linalg.norm(a))


def op_norm(x) -> float:
    """Largest singular value."""
    x = as_matrix(x)
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(x, 2))


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormalized span of matrices inside a fixed ambient space."""

    ambient_rows: int
    ambient_cols: int
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple:
        return (self.ambient_rows, self.ambient_cols)

    @cached_property
    def stack(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, self.ambient_rows, self.ambient_cols), complex)
        return np.stack(self.basis)

    def coeffs(self, x) -> np.ndarray:
        """Coordinates of x against the orthonormal basis."""
        x = as_matrix(x)
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs ambient {self.shape}")
        if not self.basis:
            return np.zeros(0, complex)
        return np.einsum("kij,ij->k", self.stack.conj(), x)

    def project(self, x) -> np.ndarray:
        return self.from_coeffs(self.coeffs(x))

    def from_coeffs(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.dim,):
            raise ValueError("coefficient vector has wrong length")
        if not self.basis:
            return np.zeros(self.shape, complex)
        return np.einsum("k,kij->ij", c, self.stack)


def numerical_rank(s: np.ndarray, rel_tol: float, min_scale: float = 0.0) -> int:
    """Number of singular values (descending) above rel_tol * max(min_scale, s_0).

    The one rank rule.  Spans of input matrices pass min_scale=0: a relative
    cutoff keeps the rank scale-free.  Coordinates against an orthonormal
    basis are O(1), so min_scale=1 there gives an all-noise system rank zero.
    """
    return int(np.sum(s > rel_tol * max(min_scale, s[0]))) if s.size else 0


def row_basis(rows: np.ndarray, rel_tol: float, min_scale: float = 0.0) -> np.ndarray:
    """Orthonormal rows spanning the row space, rank by :func:`numerical_rank`."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[: numerical_rank(s, rel_tol, min_scale)]


def orthonormalize(mats, tol: ToleranceConfig | None = None, *, shape=None) -> Subspace:
    """Orthonormal basis of the span of ``mats``.

    Rank is decided by a singular-value cutoff of ``eq_tol`` relative to the
    largest singular value, with no floor.  An empty input yields the zero
    subspace, in which case the ambient ``shape`` must be supplied.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        stacked = np.asarray(mats, dtype=complex)
        if stacked.shape[0] == 0:
            if shape is None:
                raise ValueError("empty input needs an explicit ambient shape")
            return Subspace(shape[0], shape[1], ())
        mshape = stacked.shape[1:]
    else:
        mats = [as_matrix(m) for m in mats]
        if not mats:
            if shape is None:
                raise ValueError("empty input needs an explicit ambient shape")
            return Subspace(shape[0], shape[1], ())
        mshape = mats[0].shape
        for m in mats:
            if m.shape != mshape:
                raise ValueError(f"shape mismatch: {m.shape} vs {mshape}")
        stacked = np.stack(mats)
    if shape is not None and tuple(shape) != tuple(mshape):
        raise ValueError(f"declared ambient {tuple(shape)} does not match matrices {tuple(mshape)}")
    rows = stacked.reshape(stacked.shape[0], -1)
    if not np.isfinite(rows).all():
        raise ValueError("matrix entries must be finite")
    basis = tuple(v.reshape(mshape) for v in row_basis(rows, tol.eq_tol))
    return Subspace(mshape[0], mshape[1], basis)


def close_span(seed, step, tol: ToleranceConfig | None = None, shape=None) -> Subspace:
    """Smallest span containing ``seed`` and closed under ``step``.

    ``step`` maps the stacked orthonormal basis of the current span to a
    stack of elements the span must also contain.  The span grows by them
    until its dimension stops growing, for at most rows * cols + 2 rounds.
    A seed that is already a :class:`Subspace` is taken as it stands.
    """
    cur = seed if isinstance(seed, Subspace) else orthonormalize(seed, tol, shape=shape)
    for _ in range(cur.ambient_rows * cur.ambient_cols + 2):
        if cur.dim == 0:
            break
        nxt = orthonormalize(np.concatenate([cur.stack, step(cur.stack)]), tol, shape=cur.shape)
        if nxt.dim == cur.dim:
            return nxt
        cur = nxt
    return cur


def projection_residual(space: Subspace, x) -> float:
    """Hilbert-Schmidt distance from x to the subspace."""
    x = as_matrix(x)
    return hs_norm(x - space.project(x))


def contains(space: Subspace, x, tol: ToleranceConfig | None = None) -> bool:
    """Membership test, relative tolerance eq_tol * max(1, |x|)."""
    tol = tol or DEFAULT_TOL
    x = as_matrix(x)
    if x.shape != space.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs ambient {space.shape}")
    return projection_residual(space, x) <= tol.eq_tol * max(1.0, hs_norm(x))


def sqrt_psd(x, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Hermitian positive-semidefinite square root.

    Eigenvalues in [-psd_tol, 0) are clipped to zero; anything below
    -psd_tol, or a non-Hermitian input, is an error.
    """
    tol = tol or DEFAULT_TOL
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("square matrix required")
    scale = max(1.0, hs_norm(x))
    if hs_norm(x - x.conj().T) > tol.eq_tol * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    if w.size and w.min() < -tol.psd_tol:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class LinearMapOnSubspace:
    """Linear map determined by images of an orthonormal domain basis."""

    domain: Subspace
    images: tuple
    codomain_shape: tuple

    def __post_init__(self) -> None:
        if len(self.images) != self.domain.dim:
            raise ValueError("one image per domain basis element required")
        for im in self.images:
            if as_matrix(im).shape != tuple(self.codomain_shape):
                raise ValueError("image shape does not match declared codomain")

    @cached_property
    def image_stack(self) -> np.ndarray:
        if not self.images:
            return np.zeros((0,) + tuple(self.codomain_shape), complex)
        return np.stack(self.images)

    def apply(self, x, tol: ToleranceConfig | None = None) -> np.ndarray:
        tol = tol or DEFAULT_TOL
        x = as_matrix(x)
        if not contains(self.domain, x, tol):
            raise ValueError("argument lies outside the map's domain")
        c = self.domain.coeffs(x)
        if not self.images:
            return np.zeros(self.codomain_shape, complex)
        return np.einsum("k,kij->ij", c, self.image_stack)


def identity_map(space: Subspace) -> LinearMapOnSubspace:
    return LinearMapOnSubspace(space, tuple(space.basis), space.shape)


def amplify(phi: LinearMapOnSubspace, k: int, X, tol: ToleranceConfig | None = None) -> np.ndarray:
    """Entrywise amplification: apply phi to each block of a k x k block matrix."""
    tol = tol or DEFAULT_TOL
    if k < 1:
        raise ValueError("amplification level must be positive")
    X = as_matrix(X)
    m, n = phi.domain.shape
    if X.shape != (k * m, k * n):
        raise ValueError(f"expected a {k}x{k} block matrix of {m}x{n} blocks, got {X.shape}")
    kr, kc = phi.codomain_shape
    out = np.zeros((k * kr, k * kc), complex)
    for u in range(k):
        for v in range(k):
            block = X[u * m : (u + 1) * m, v * n : (v + 1) * n]
            try:
                out[u * kr : (u + 1) * kr, v * kc : (v + 1) * kc] = phi.apply(block, tol)
            except ValueError as exc:
                raise ValueError(f"block ({u}, {v}) is outside the map's domain") from exc
    return out


def null_space(a: np.ndarray, rel_tol: float, min_scale: float = 0.0) -> np.ndarray:
    """Rows spanning the kernel {c : a @ c = 0}.

    Rank follows :func:`numerical_rank`.
    """
    a = np.asarray(a)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[numerical_rank(s, rel_tol, min_scale):].conj()


def product_stack(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All pairwise products of two stacks of matrices, as one stack."""
    if left.shape[0] == 0 or right.shape[0] == 0:
        return np.zeros((0, left.shape[1] if left.shape[0] else right.shape[1], right.shape[2] if right.shape[0] else left.shape[2]), complex)
    out = np.einsum("aij,bjk->abik", left, right)
    return out.reshape(-1, left.shape[1], right.shape[2])


def max_projection_residual(space: Subspace, stack: np.ndarray) -> float:
    """Largest relative distance from the stacked matrices to the subspace."""
    if stack.shape[0] == 0:
        return 0.0
    flat = stack.reshape(stack.shape[0], -1)
    if space.dim == 0:
        res = np.linalg.norm(flat, axis=1)
        return float((res / np.maximum(1.0, res)).max())
    basis_flat = space.stack.reshape(space.dim, -1)
    coeffs = flat @ basis_flat.conj().T
    res = np.linalg.norm(flat - coeffs @ basis_flat, axis=1)
    scale = np.maximum(1.0, np.linalg.norm(flat, axis=1))
    return float((res / scale).max())


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
