"""Dense complex linear algebra on subspaces of matrices.

Everything operates on complex numpy arrays: a matrix is 2-D and a list
of matrices is a stack (k, rows, cols).  A :class:`Subspace` stores the
stack of an orthonormal basis under the Hilbert-Schmidt inner product
``<a, b> = trace(b^* a)``, which is linear in the first argument.  All
equality decisions are residual tests against a :class:`ToleranceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "Subspace",
    "LinearMapOnSubspace",
    "as_matrix",
    "adjoints",
    "hs_inner",
    "hs_norm",
    "op_norm",
    "numerical_rank",
    "basis_and_rank",
    "row_basis",
    "orthonormalize",
    "close_span",
    "contains",
    "projection_residual",
    "null_space",
    "intertwiners",
    "sqrt_psd",
    "identity_map",
    "product_stack",
    "relative_gaps",
    "max_relative_gap",
    "max_projection_residual",
    "random_unitary",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every decision procedure.

    eq_tol bounds residuals treated as equality, and how negative an
    eigenvalue may be before a matrix stops counting as positive
    semidefinite; sdp_tol is the feasibility residual for the semidefinite
    solvers, and max_iter caps their iteration count.
    """

    eq_tol: float = 1e-9
    sdp_tol: float = 1e-7
    max_iter: int = 50000

    def __post_init__(self) -> None:
        if min(self.eq_tol, self.sdp_tol) <= 0.0:
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


def adjoints(stack: np.ndarray) -> np.ndarray:
    """The adjoint of each matrix of a stack (..., rows, cols)."""
    return np.swapaxes(stack.conj(), -1, -2)


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


def _as_stack(mats, shape) -> np.ndarray:
    """Coerce matrices to a finite complex stack (k, rows, cols) of the declared shape."""
    a = np.asarray(mats, dtype=complex)
    if a.size == 0 and a.ndim == 1:
        a = a.reshape(0, *shape)
    if a.ndim != 3 or a.shape[1:] != tuple(shape):
        raise ValueError(f"expected matrices of shape {tuple(shape)}, got a stack of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True, eq=False)
class Subspace:
    """Orthonormalized span of matrices inside a fixed ambient space, stored
    as the stack (dim, rows, cols) of its basis; a sequence of matrices is
    stacked once."""

    ambient_rows: int
    ambient_cols: int
    stack: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "stack", _as_stack(self.stack, self.shape))

    @property
    def basis(self) -> tuple:
        return tuple(self.stack)

    @property
    def dim(self) -> int:
        return len(self.stack)

    @property
    def shape(self) -> tuple:
        return (self.ambient_rows, self.ambient_cols)

    def coeffs(self, x) -> np.ndarray:
        """Coordinates of x against the orthonormal basis."""
        x = as_matrix(x)
        if x.shape != self.shape:
            raise ValueError(f"shape mismatch: {x.shape} vs ambient {self.shape}")
        return np.einsum("kij,ij->k", self.stack.conj(), x)

    def project(self, x) -> np.ndarray:
        return self.from_coeffs(self.coeffs(x))

    def from_coeffs(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=complex)
        if c.shape != (self.dim,):
            raise ValueError("coefficient vector has wrong length")
        return np.einsum("k,kij->ij", c, self.stack)


def numerical_rank(s: np.ndarray, rel_tol: float, min_scale: float = 0.0):
    """Number of singular values (descending) above rel_tol * max(min_scale, s_0).

    The one rank rule.  Spans of input matrices pass min_scale=0: a relative
    cutoff keeps the rank scale-free.  Coordinates against an orthonormal
    basis are O(1), so min_scale=1 there gives an all-noise system rank zero.
    A stack of spectra (..., r) gives an integer array of ranks (...).
    """
    if s.ndim > 1:
        return np.sum(s > rel_tol * np.maximum(min_scale, s[..., :1]), axis=-1)
    return int(np.sum(s > rel_tol * max(min_scale, s[0]))) if s.size else 0


def basis_and_rank(rows: np.ndarray, rel_tol: float, min_scale: float = 0.0):
    """:func:`row_basis` and the rank of each member."""
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    rank = numerical_rank(s, rel_tol, min_scale)
    if vh.ndim == 2:
        return vh[:rank], rank
    vh = vh[..., : rank.max(initial=0), :]
    return np.where(np.arange(vh.shape[-2])[:, None] < rank[..., None, None], vh, 0.0), rank


def row_basis(rows: np.ndarray, rel_tol: float, min_scale: float = 0.0) -> np.ndarray:
    """Orthonormal rows spanning the row space, rank by :func:`numerical_rank`.

    A stack (..., m, n) gives a stack of bases, trimmed to the largest
    rank; a member's rows beyond its own rank are zero.
    """
    return basis_and_rank(rows, rel_tol, min_scale)[0]


def orthonormalize(mats, tol: ToleranceConfig | None = None, *, shape=None) -> Subspace:
    """Orthonormal basis of the span of ``mats``, a stack or a sequence of matrices.

    Rank is decided by a singular-value cutoff of ``eq_tol`` relative to the
    largest singular value, with no floor.  An empty input yields the zero
    subspace, in which case the ambient ``shape`` must be supplied.
    """
    tol = tol or DEFAULT_TOL
    stacked = np.asarray(mats, dtype=complex)
    if shape is None:
        if stacked.size == 0:
            raise ValueError("empty input needs an explicit ambient shape")
        shape = stacked.shape[1:]
    stacked = _as_stack(stacked, shape)
    rows = stacked.reshape(len(stacked), shape[0] * shape[1])
    return Subspace(*shape, row_basis(rows, tol.eq_tol).reshape(-1, *shape))


def close_span(seed, step, tol: ToleranceConfig | None = None, shape=None):
    """Smallest span containing ``seed`` and closed under ``step``.

    ``step`` maps the stacked orthonormal basis of the current span to a
    stack of elements the span must also contain.  The span grows by them
    until its dimension stops growing, for at most rows * cols + 2 rounds.
    A seed that is already a :class:`Subspace` is taken as it stands.

    A 4-D seed (T, k, rows, cols) is T spans closed in one loop, and
    ``step`` then maps a stack of bases (T, R, rows, cols) to a stack
    (T, S, rows, cols).  Zero seed matrices and zero basis rows add
    nothing.  This returns ``(basis, dims, residual)``: member t's basis is
    ``basis[t, :dims[t]]`` with zero rows after it, and ``residual[t]`` is
    the largest |p - proj p| / max(1, |p|) over the step images p of the
    round that confirmed it closed (inf if none did).  A single span is a
    batch of one.
    """
    tol = tol or DEFAULT_TOL
    if isinstance(seed, np.ndarray) and seed.ndim == 4:
        t, k, rows, cols = seed.shape
        basis, dims = basis_and_rank(seed.reshape(t, k, rows * cols), tol.eq_tol)
        return _close_rows(basis, dims, step, tol, (rows, cols))
    cur = seed if isinstance(seed, Subspace) else orthonormalize(seed, tol, shape=shape)
    flat = cur.stack.reshape(1, cur.dim, cur.ambient_rows * cur.ambient_cols)
    basis, _, _ = _close_rows(flat, np.array([cur.dim]), lambda b: step(b[0])[None], tol, cur.shape)
    return Subspace(*cur.shape, basis[0].reshape(-1, *cur.shape))


def _close_rows(basis, dims, step, tol, shape):
    """The loop of :func:`close_span` on flattened bases (T, R, rows * cols)."""
    t, _, size = basis.shape
    zero = dims == 0
    # members settled so far, as (indices, bases, dims, residuals); a zero
    # span is closed as it stands
    settled = [(np.flatnonzero(zero), basis[zero], dims[zero], np.zeros(zero.sum()))]
    idx = np.flatnonzero(~zero)
    basis, dims = basis[idx], dims[idx]
    for _ in range(size + 2):
        if idx.size == 0:
            break
        images = step(basis.reshape(*basis.shape[:2], *shape)).reshape(idx.size, -1, size)
        nxt, nxt_dims = basis_and_rank(np.concatenate([basis, images], axis=1), tol.eq_tol)
        done = nxt_dims == dims
        if done.any():
            fixed, im = nxt[done], images[done]
            res = np.linalg.norm(im - im @ adjoints(fixed) @ fixed, axis=-1)
            res = res / np.maximum(1.0, np.linalg.norm(im, axis=-1))
            settled.append((idx[done], fixed, dims[done], res.max(axis=-1, initial=0.0)))
        grew = ~done
        idx, dims = idx[grew], nxt_dims[grew]
        basis = nxt[grew][:, : dims.max(initial=0)]
    settled.append((idx, basis, dims, np.full(idx.size, np.inf)))
    out = np.zeros((t, max(b.shape[1] for _, b, _, _ in settled), size), complex)
    out_dims, residual = np.zeros(t, int), np.zeros(t)
    for i, b, d, r in settled:
        out[i, : b.shape[1]] = b
        out_dims[i], residual[i] = d, r
    return out[:, : out_dims.max(initial=0)], out_dims, residual


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

    Eigenvalues in [-eq_tol, 0) are clipped to zero; anything below
    -eq_tol, or a non-Hermitian input, is an error.
    """
    tol = tol or DEFAULT_TOL
    x = as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise ValueError("square matrix required")
    scale = max(1.0, hs_norm(x))
    if hs_norm(x - x.conj().T) > tol.eq_tol * scale:
        raise ValueError("matrix is not Hermitian")
    w, v = np.linalg.eigh((x + x.conj().T) / 2.0)
    if w.size and w.min() < -tol.eq_tol:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.conj().T
    return (root + root.conj().T) / 2.0


@dataclass(frozen=True, eq=False)
class LinearMapOnSubspace:
    """Linear map determined by the stacked images of an orthonormal domain basis."""

    domain: Subspace
    image_stack: np.ndarray
    codomain_shape: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "image_stack", _as_stack(self.image_stack, self.codomain_shape))
        if len(self.image_stack) != self.domain.dim:
            raise ValueError("one image per domain basis element required")

    @property
    def images(self) -> tuple:
        return tuple(self.image_stack)

    def apply(self, x, tol: ToleranceConfig | None = None) -> np.ndarray:
        tol = tol or DEFAULT_TOL
        x = as_matrix(x)
        if not contains(self.domain, x, tol):
            raise ValueError("argument lies outside the map's domain")
        return np.einsum("k,kij->ij", self.domain.coeffs(x), self.image_stack)


def identity_map(space: Subspace) -> LinearMapOnSubspace:
    return LinearMapOnSubspace(space, space.stack, space.shape)


def null_space(a: np.ndarray, rel_tol: float, min_scale: float = 0.0) -> np.ndarray:
    """Rows spanning the kernel {c : a @ c = 0}, rank by :func:`numerical_rank`."""
    a = np.asarray(a)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[numerical_rank(s, rel_tol, min_scale):].conj()


_MATCH_CUT = 1e-6  # eigenvalues closer than this times max(1, |lambda|max) match in `intertwiners`


def intertwiners(s: np.ndarray, t: np.ndarray, tol: ToleranceConfig, seed: int = 0):
    """Stacks a (k, p, m) and b (k, q, n) spanning the solutions of
    a s_j = t_j b and b s_j* = t_j* a, for stacks s (d, m, n) and t (d, p, q).

    A solution has a s_j s_l* = t_j t_l* a, so a G(s) = G(t) a for
    G(x) = sum_k w_k x_k x_k* + x_c x_e* + x_e x_c*, w in U(1, 2) and c, e
    complex Gaussian from default_rng(seed); likewise b G(s*) = G(t*) b.  So
    in the eigenbases of G(s) and G(t), a vanishes off the entries whose two
    eigenvalues match within _MATCH_CUT, and so does b; a wide cut only
    merges eigenvalues.  The equations on the kept entries take one SVD null
    space (min_scale 1), rotated back to HS-orthonormal pairs (a_i, b_i).
    """
    (d, m, n), (p, q) = s.shape, t.shape[1:]
    rng = np.random.default_rng(seed)
    w, ce = rng.uniform(1.0, 2.0, d), rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
    mix = np.diag(w) + ce.T @ ce[::-1].conj()  # diag(w) + c e* + e c*

    def even(x):  # G(x) = sum_kl mix_kl x_k x_l*, one product of side-by-side stacks
        y = (mix.T @ x.reshape(d, -1)).reshape(x.shape)
        wide, mixed = (z.transpose(1, 0, 2).reshape(x.shape[1], -1) for z in (x, y))
        return wide @ mixed.conj().T

    spectra = [np.linalg.eigh(even(x)) for x in (s, adjoints(s), t, adjoints(t))]
    (lam_l, pl), (lam_r, pr), (mu_l, ql), (mu_r, qr) = spectra
    cut = _MATCH_CUT * max(1.0, np.abs(np.concatenate([lam for lam, _ in spectra])).max())
    (ia, ja), (ib, jb) = (np.nonzero(np.abs(mu[:, None] - lam) <= cut) for mu, lam in ((mu_l, lam_l), (mu_r, lam_r)))
    na, nb = len(ia), len(ib)
    if na + nb == 0:  # spectra that share no eigenvalue rule out every solution
        return np.zeros((0, p, m), complex), np.zeros((0, q, n), complex)
    # one column per kept entry of A = Q_L* a P_L and B = Q_R* b P_R, with
    # rows A s'_j - t'_j B and B s'_j* - t'_j* A for s' = P_L* s P_R, t' = Q_L* t Q_R
    s_rot, t_rot = adjoints(pl) @ s @ pr, adjoints(ql) @ t @ qr
    cols = np.zeros((na + nb, d, p * n + q * m), complex)
    first, second = cols[..., : p * n].reshape(-1, d, p, n), cols[..., p * n :].reshape(-1, d, q, m)  # views of cols
    first[np.arange(na), :, ia, :] = s_rot[:, ja, :].transpose(1, 0, 2)
    first[na + np.arange(nb), :, :, jb] = -t_rot[:, :, ib].transpose(2, 0, 1)
    second[na + np.arange(nb), :, ib, :] = s_rot[:, :, jb].conj().transpose(2, 0, 1)
    second[np.arange(na), :, :, ja] = -t_rot[:, ia, :].conj().transpose(1, 0, 2)
    kernel = null_space(cols.reshape(na + nb, -1).T, tol.eq_tol, min_scale=1.0)
    a, b = np.zeros((len(kernel), p, m), complex), np.zeros((len(kernel), q, n), complex)
    a[:, ia, ja], b[:, ib, jb] = kernel[:, :na], kernel[:, na:]
    return ql @ a @ adjoints(pl), qr @ b @ adjoints(pr)


def product_stack(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All pairwise products of two stacks of matrices, as one stack.

    The stack is a-major: entry a * len(right) + b is left[a] @ right[b].
    All of them come from one matrix product (a i, j) @ (j, b k), per
    member when the stacks carry leading batch axes.
    """
    *lead, a, i, j = left.shape
    b, _, k = right.shape[-3:]
    flat = left.reshape(*lead, a * i, j) @ np.swapaxes(right, -3, -2).reshape(*lead, j, b * k)
    return np.swapaxes(flat.reshape(*lead, a, i, b, k), -3, -2).reshape(*lead, a * b, i, k)


def relative_gaps(ref: np.ndarray, other: np.ndarray) -> np.ndarray:
    """|ref - other| / max(1, |ref|) for each matrix of two stacks."""
    return np.linalg.norm(ref - other, axis=(-2, -1)) / np.maximum(1.0, np.linalg.norm(ref, axis=(-2, -1)))


def max_relative_gap(ref: np.ndarray, other: np.ndarray) -> float:
    """Largest :func:`relative_gaps` over two stacks of matrices (0 when empty)."""
    return float(relative_gaps(ref, other).max(initial=0.0))


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
