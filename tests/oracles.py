"""Independent oracles used to validate library answers.

These deliberately avoid the library's computation paths: the radical comes
from a composition series of the natural module, pairing systems are
assembled by explicit loops over a handwritten corner basis or by einsum
contractions, product stacks and the pairing identities come from einsum or
from loops over basis pairs and triples rather than matrix products, amplified
norms are taken from explicitly assembled block matrices, the algebra
predicates come from explicit matrix products of pairs and triples rather
than from the structure tensor, and triangularizability is McCoy's
criterion on the commutator ideal rather than the trace-form radical, or
the flag deflated one common eigenvector at a time, each checked against
the basis one element at a time, rather than one eigensolve per layer.  The
amplification and the Choi matrix apply a map block by block, and the
blockwise pairing report loops over basis pairs.  A TRO block's shape and
multiplicity come from rank counts of explicit products, and the envelope's
kept blocks are checked against a completely isometric test of every set
of blocks rather than the Shilov rule's single-block tests.  The violation
search that stops at its first violating run is checked against the search
that polishes every level and keeps the best ratio, and the conjugation
fit chosen by the Gram matrices against the fit that runs both its loops.
The factored pairing solve is checked against one SVD of the materialized
system.  Dykstra on the two parity blocks of the Choi matrix is checked
against Dykstra on the whole matrix, with an exact PSD test every step.
The Choi-block certificate's witness is checked against the Choi block of
phi P_S built one unit at a time, a dense eigensolve, and its action on the
pinned elements applied block by block.
The commutant that a TRO is read from is checked through its dimension and
its center's, from dense Kronecker null spaces in the whole ambient, with
no support compression.  Random triangular algebras are sampled one seed
at a time, each closed by its own `close_span` and certified by
`verify_algebra`, rather than in batches; each seed's draws take the real
and imaginary parts of a matrix from two generator calls rather than one.
A search's subspace key is the digest of one span's own projector rather
than a row of a padded, batched product.
"""

import itertools
import math

import numpy as np

from opalg import cb, reversibility, structure
from opalg.algebra import verify_algebra
from opalg.linalg import DEFAULT_TOL, LinearMapOnSubspace, Subspace, close_span, hs_norm, product_stack
from opalg.tro import injective_envelope


def _orth_columns(cols, tol=1e-10):
    if not cols:
        return np.zeros((0, 0), complex)
    m = np.column_stack(cols)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return u[:, :rank]


def _orbit(mats, v, tol=1e-10):
    """Smallest subspace containing v and invariant under every matrix."""
    n = v.shape[0]
    basis = _orth_columns([v], tol)
    while True:
        cols = [basis[:, k] for k in range(basis.shape[1])]
        for m in mats:
            for k in range(basis.shape[1]):
                cols.append(m @ basis[:, k])
        nxt = _orth_columns(cols, tol)
        if nxt.shape[1] == basis.shape[1]:
            return basis
        basis = nxt


def _candidate_vectors(mats, n, rng):
    out = [np.eye(n, dtype=complex)[:, k] for k in range(n)]
    for m in mats:
        vals, vecs = np.linalg.eig(m)
        out.extend(vecs[:, k] for k in range(n))
    for _ in range(8):
        out.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return [v for v in out if np.linalg.norm(v) > 1e-12]


def _composition_series(mats, n, rng, tol=1e-10):
    """Flags 0 < V_1 < ... < V_r = C^n with simple factors, for the unitized
    action of the given matrices."""
    unitized = list(mats) + [np.eye(n, dtype=complex)]
    series = [np.zeros((n, 0), complex)]
    current = series[0]
    while current.shape[1] < n:
        # work in the quotient by the current subspace
        comp = _quotient_basis(current, n)
        compressed = [comp.conj().T @ m @ comp for m in unitized]
        dsub = comp.shape[1]
        best = None
        for v in _candidate_vectors(compressed, dsub, rng):
            orb = _orbit(compressed, v, tol)
            if best is None or orb.shape[1] < best.shape[1]:
                best = orb
            if best.shape[1] == 1:
                break
        # ensure the factor is simple: the compressed unitized algebra on the
        # orbit must be the full matrix algebra (Burnside), else refine
        while True:
            k = best.shape[1]
            if k == 1:
                break
            action = [best.conj().T @ m @ best for m in compressed]
            span = np.stack([a.ravel() for a in action])
            rank = np.linalg.matrix_rank(span, tol=1e-8)
            if rank == k * k:
                break
            refined = None
            for v in _candidate_vectors(action, k, rng):
                orb = _orbit(action, v, tol)
                if orb.shape[1] < k and (refined is None or orb.shape[1] < refined.shape[1]):
                    refined = orb
            if refined is None:
                break  # cannot refine further; treat as a factor
            best = best @ refined
        lifted = _orth_columns(
            [current[:, k] for k in range(current.shape[1])]
            + [comp @ best[:, k] for k in range(best.shape[1])],
            tol,
        )
        series.append(lifted)
        current = lifted
    return series


def _quotient_basis(subspace_cols, n):
    """Orthonormal basis of the orthocomplement."""
    if subspace_cols.shape[1] == 0:
        return np.eye(n, dtype=complex)
    proj = subspace_cols @ subspace_cols.conj().T
    u, s, _ = np.linalg.svd(np.eye(n) - proj)
    rank = int(np.sum(s > 0.5))
    return u[:, :rank]


def radical_by_composition_series(basis_mats, seed=0):
    """Radical as the elements acting as zero on every composition factor.

    The natural module of a faithfully represented algebra has a composition
    series; the intersection of the annihilators of its factors is the
    largest nilpotent ideal.  Returns coefficient vectors over basis_mats.
    """
    rng = np.random.default_rng(seed)
    mats = [np.asarray(m, dtype=complex) for m in basis_mats]
    n = mats[0].shape[0]
    series = _composition_series(mats, n, rng)
    rows = []
    for lo, hi in zip(series[:-1], series[1:]):
        factor = _factor_basis(lo, hi)
        if factor.shape[1] == 0:
            continue
        # action of sum c_i b_i on the factor must vanish
        proj_out = np.eye(n) - lo @ lo.conj().T
        cols = [(proj_out @ m @ factor).ravel() for m in mats]
        rows.append(np.stack(cols, axis=1))
    big = np.vstack(rows)
    _, s, vh = np.linalg.svd(big, full_matrices=big.shape[0] < big.shape[1])
    # the rows have O(1) scale (unit basis vectors), so floor the cutoff
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0]))) if s.size else 0
    return vh[rank:].conj()


def _factor_basis(lo, hi):
    """Columns of hi orthogonal to lo."""
    if lo.shape[1] == 0:
        return hi
    proj = lo @ lo.conj().T
    residual = hi - proj @ hi
    return _orth_columns([residual[:, k] for k in range(residual.shape[1])])


def pairing_system_bruteforce(algebra_basis, tro_basis, reversed_product):
    """Solve b_i v* b_j = mu(b_i, b_j) by a direct complex parametrization.

    Parametrizes v = sum conj(d_t) z_t so the system is complex linear in d.
    Returns (residual, v or None).
    """
    rows, rhs = [], []
    for bi in algebra_basis:
        for bj in algebra_basis:
            cols = [bi @ z.conj().T @ bj for z in tro_basis]
            rows.append(np.stack([c.ravel() for c in cols], axis=1))
            target = bj @ bi if reversed_product else bi @ bj
            rhs.append(target.ravel())
    big = np.vstack(rows)
    target = np.concatenate(rhs)
    d, *_ = np.linalg.lstsq(big, target, rcond=None)
    residual = float(np.linalg.norm(big @ d - target))
    v = sum(np.conj(dt) * z for dt, z in zip(d, tro_basis))
    return residual, v


def product_stack_by_einsum(left, right):
    """All pairwise products left[a] @ right[b], a-major, by einsum."""
    return np.einsum("aij,bjk->abik", left, right).reshape(-1, left.shape[1], right.shape[2])


def pairing_system_by_einsum(basis, tro_stack):
    """The pairing system's matrix: rows (i, j, entry), column k holding
    b_i z_k* b_j, contracted by einsum along a fixed path."""
    path = ["einsum_path", (0, 1), (0, 1)]
    system = np.einsum("iar,ksr,jsc->ijack", basis, tro_stack.conj(), basis, optimize=path)
    return system.reshape(-1, len(tro_stack))


def pairing_solve_by_dense_system(basis, mu, z_space, tol=DEFAULT_TOL):
    """Solve b_i v* b_j = mu_ij over a TRO on the materialized system.

    The d^2 pq x t matrix of :func:`pairing_system_by_einsum` takes one SVD;
    its residual is ||system d - target|| for the minimum-norm d, and the
    least norm over the solution set is minimized as the library does.
    Returns the spectrum, the rank and the solution."""
    t = z_space.dim
    if t == 0:
        return np.zeros(0), 0, reversibility.PairingSolution(None, np.inf, np.inf, 0, "NONE", True, np.inf)
    Z = z_space.space.stack
    system = pairing_system_by_einsum(basis, Z)
    target = mu.ravel()
    u, s, vh = np.linalg.svd(system, full_matrices=system.shape[0] < t)
    rank = int(np.sum(s > tol.eq_tol * max(1.0, s[0])))
    d = vh[:rank].conj().T @ ((u[:, :rank].conj().T @ target) / s[:rank])
    raw = float(np.linalg.norm(system @ d - target))
    scale = max(1.0, float(np.linalg.norm(target)))
    affine_dim = 2 * (t - rank)
    if raw > tol.eq_tol * scale:
        return s, rank, reversibility.PairingSolution(None, raw / scale, np.inf, affine_dim, "NONE", True, np.inf)
    particular = sum(np.conj(dk) * z for dk, z in zip(d, Z))
    directions = [e for nk in vh[rank:] for n in [sum(c * z for c, z in zip(nk, Z))] for e in (n, 1j * n)]
    res = cb.min_opnorm_affine(cb.AffineMatrixSet(particular, tuple(directions), 0.0), tol)
    if res.min_norm > 1.0 + tol.sdp_tol:
        return s, rank, reversibility.PairingSolution(None, raw / scale, res.min_norm, affine_dim, "NONE",
                                                      op_norm_lower=res.lower)
    element = res.argmin
    exits = all(np.linalg.norm(element + eps * e, 2) > 1.0 + tol.sdp_tol for e in directions for eps in (0.01, -0.01))
    status = "UNIQUE_IN_BALL" if exits else "FOUND"
    residual = pairing_residual_by_einsum(basis, element, mu)
    return s, rank, reversibility.PairingSolution(element, residual, res.min_norm, affine_dim, status,
                                                  op_norm_lower=res.lower)


def pairing_residual_by_einsum(basis, v, mu):
    """max over (i, j) of |b_i v* b_j - mu_ij| / max(1, |mu_ij|), by einsum."""
    diff = np.einsum("iar,sr,jsc->ijac", basis, v.conj(), basis) - mu
    return float((np.linalg.norm(diff, axis=(2, 3)) / np.maximum(1.0, np.linalg.norm(mu, axis=(2, 3)))).max())


def pairing_consistency_by_loops(basis, z, w):
    """Per-family residuals of the four one-sided commutativity identities
    and the middle-factor interchange residual, over basis pairs and triples."""
    zs, ws = z.conj().T, w.conj().T

    def rel(a, b):
        return np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a))

    families = {
        "right_by_z": lambda x, y: (x @ zs @ y @ zs, y @ zs @ x @ zs),
        "right_by_w": lambda x, y: (x @ ws @ y @ ws, y @ ws @ x @ ws),
        "left_by_z": lambda x, y: (zs @ x @ zs @ y, zs @ y @ zs @ x),
        "left_by_w": lambda x, y: (ws @ x @ ws @ y, ws @ y @ ws @ x),
    }
    derived = {name: max((rel(*fn(x, y)) for x in basis for y in basis), default=0.0)
               for name, fn in families.items()}
    interchange = 0.0
    for x in basis:
        for y in basis:
            for u in basis:
                ref = x @ zs @ y @ zs @ u
                for mid1 in (zs, ws):
                    for mid2 in (zs, ws):
                        interchange = max(interchange, rel(ref, x @ mid1 @ y @ mid2 @ u))
    return derived, interchange


def embedding_residuals_by_loops(basis, z):
    """Images [[x z*, x (1 - z* z)^(1/2)], [0, 0]] of an orthonormal basis,
    and the worst relative residuals of phi(x) phi(y) = phi(x z* y) and
    phi(x) phi(v)* phi(y) = phi(x v* y), phi(s) taken from the coefficients
    of s against the basis, over basis pairs and triples."""
    m, n = z.shape
    vals, vecs = np.linalg.eigh(np.eye(n) - z.conj().T @ z)
    defect = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    images = []
    for x in basis:
        im = np.zeros((m + n, m + n), complex)
        im[:m, :m], im[:m, m:] = x @ z.conj().T, x @ defect
        images.append(im)

    def phi(s):
        return sum(np.vdot(b, s) * im for b, im in zip(basis, images))

    def rel(got, want):
        return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(got))

    mult = tern = 0.0
    for x, px in zip(basis, images):
        for y, py in zip(basis, images):
            mult = max(mult, rel(px @ py, phi(x @ z.conj().T @ y)))
            for v, pv in zip(basis, images):
                tern = max(tern, rel(px @ pv.conj().T @ py, phi(x @ v.conj().T @ y)))
    return images, mult, tern


def amplified_norm_ratio(domain_basis, images, block_coeffs):
    """Assemble X = [sum_k c_k b_k] blockwise by hand and compare norms."""
    level = block_coeffs.shape[0]
    m, n = domain_basis[0].shape
    kr, kc = images[0].shape
    x = np.zeros((level * m, level * n), complex)
    y = np.zeros((level * kr, level * kc), complex)
    for u in range(level):
        for v in range(level):
            xb = sum(c * b for c, b in zip(block_coeffs[u, v], domain_basis))
            yb = sum(c * t for c, t in zip(block_coeffs[u, v], images))
            x[u * m : (u + 1) * m, v * n : (v + 1) * n] = xb
            y[u * kr : (u + 1) * kr, v * kc : (v + 1) * kc] = yb
    nx = np.linalg.norm(x, 2)
    return (np.linalg.norm(y, 2) / nx if nx > 0 else 0.0), x


def polish_by_blocks(domain_basis, images, block_coeffs, steps):
    """One start of the violation search's gradient ascent, block by block:
    move the coefficients to <T_k, block (u, v) of y1 z1*> for the top
    singular pair (y1, z1) of Y, normalized.  Returns the best ratio seen
    and the coefficients that reached it."""
    level = block_coeffs.shape[0]
    kr, kc = images[0].shape
    best = (amplified_norm_ratio(domain_basis, images, block_coeffs)[0], block_coeffs)
    c = block_coeffs
    for _ in range(steps):
        y = np.zeros((level * kr, level * kc), complex)
        for u in range(level):
            for v in range(level):
                y[u * kr : (u + 1) * kr, v * kc : (v + 1) * kc] = sum(a * t for a, t in zip(c[u, v], images))
        left, _, right = np.linalg.svd(y)
        grad = np.outer(left[:, 0], right[0].conj())
        w = np.zeros_like(c)
        for u in range(level):
            for v in range(level):
                block = grad[u * kr : (u + 1) * kr, v * kc : (v + 1) * kc]
                w[u, v] = [np.sum(t.conj() * block) for t in images]
        c = w.conj() / np.linalg.norm(w)
        ratio = amplified_norm_ratio(domain_basis, images, c)[0]
        if ratio > best[0]:
            best = (ratio, c)
    return best


def polish_every_step(phi, coeffs, steps):
    """`cb._polish` as it ran every step, with no stop at a fixed point of
    the ascent: the same batched ascent and the same returns."""
    dstack, istack = phi.domain.stack, phi.image_stack
    level = coeffs.shape[1]
    kr, kc = phi.codomain_shape
    moving = np.ones(len(coeffs), bool)
    best_ratio, best = np.full(len(coeffs), -np.inf), coeffs
    for step in range(steps + 1):
        lam = np.linalg.eigvalsh(cb._short_gram(cb._block_matrices(coeffs, dstack))[1])
        nx = np.sqrt(np.maximum(lam[:, -1], 0.0))
        ny, left, right = cb._top_singular(cb._block_matrices(coeffs, istack))
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
        coeffs = np.where(moving[:, None, None, None], step_to, coeffs)
    return best_ratio, best


def violation_search_all_levels(phi, tol, seed):
    """The violation search as it climbed every level: polish the unit
    starts, level 1 and the random starts of levels 2 to max(kr, kc), with
    the transpose pattern among the starts of level max(m, n) for a domain
    in M_{m,n}, then keep the best ratio over all of them.  Returns that
    ratio and its coefficients, or (0.0, None) for a zero domain; the search
    exits with a violation exactly when the ratio exceeds 1 + sdp_tol."""
    d = phi.domain.dim
    if d == 0:
        return 0.0, None
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    rng = np.random.default_rng(seed)

    def random_starts(level):
        shape = (level, level, d)
        return np.stack([rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(12)])

    runs = [
        polish_every_step(phi, np.eye(d, dtype=complex).reshape(d, 1, 1, d), 0),
        polish_every_step(phi, random_starts(1), 4),
    ]
    for level in range(2, max(kr, kc, 2) + 1):
        starts = random_starts(level)
        if level == max(m, n):
            # block (u, v) is the projection of e_vu, zero outside u < n, v < m
            pattern = np.zeros((1, level, level, d), complex)
            for u in range(n):
                for v in range(m):
                    pattern[0, u, v] = [np.conj(b[v, u]) for b in phi.domain.basis]
            starts = np.concatenate([pattern, starts])
        runs.append(polish_every_step(phi, starts, 6))
    best_ratio, best = 0.0, None
    for ratios, coeffs in runs:
        i = int(np.argmax(ratios))
        if ratios[i] > best_ratio:
            best_ratio, best = float(ratios[i]), coeffs[i]
    return best_ratio, best


def side_by_side(stack):
    """The matrices of a (d, r, c) stack placed side by side: r x (d c)."""
    d, r, c = stack.shape
    return stack.transpose(1, 0, 2).reshape(r, d * c)


def conjugation_fit_both_loops(phi, tol, seed):
    """The conjugation fit that runs both loops whatever the Gram matrices:
    unitary polar starts for square shapes, then the least-squares trials.
    Returns (u, v) with phi(x) = u x v on the domain basis and u, v
    contractions, or None."""
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    s, t = phi.domain.stack, phi.image_stack
    if phi.domain.dim == 0:
        return np.zeros((kr, m), complex), np.zeros((n, kc), complex)
    t_wide, t_tall = side_by_side(t), t.reshape(-1, kc)
    scale = max(1.0, float(np.linalg.norm(t)))
    rng = np.random.default_rng(seed)

    def fit_of(u, v):
        return np.linalg.norm(u @ s @ v - t)

    if m == kr and n == kc:
        starts = [np.eye(n, dtype=complex)]
        for _ in range(6):
            starts.append(cb._polar_unitary(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))))
        for v in starts:
            last = np.inf
            for _ in range(120):
                u = cb._polar_unitary(t_wide @ side_by_side(s @ v).conj().T)
                v = cb._polar_unitary((u @ s).reshape(-1, n).conj().T @ t_tall)
                fit = fit_of(u, v)
                if fit <= 1e-11 * scale:
                    return u, v
                if fit > 0.999 * last:
                    break
                last = fit
    for trial in range(6):
        if trial == 0:
            v = np.eye(n, kc, dtype=complex)
        else:
            v = rng.standard_normal((n, kc)) + 1j * rng.standard_normal((n, kc))
        last = np.inf
        for _ in range(60):
            u = np.linalg.lstsq(side_by_side(s @ v).T, t_wide.T, rcond=None)[0].T
            v = np.linalg.lstsq((u @ s).reshape(-1, n), t_tall, rcond=None)[0]
            fit = fit_of(u, v)
            if fit <= 1e-11 * scale or fit > 0.999 * last:
                break
            last = fit
        if fit > 1e-11 * scale:
            continue
        nu, nv = np.linalg.norm(u, 2), np.linalg.norm(v, 2)
        if nu == 0 or nv == 0:
            return u, v
        if nu * nv <= 1.0 + tol.eq_tol:
            r = np.sqrt(nv / nu)
            return u * r, v / r
    return None


def intertwiner_rows_by_units(s, t):
    """The matrix of (a, b) -> (a s_k - t_k b, b s_k* - t_k* a)_k on
    x = (vec a, vec b), row-major vec, for s (d, m, n), t (d, p, q), a (p, m)
    and b (q, n), applied to one unit vector at a time."""
    (_, m, n), (p, q) = s.shape, t.shape[1:]
    cols = []
    for x in np.eye(p * m + q * n):
        a, b = x[: p * m].reshape(p, m), x[p * m :].reshape(q, n)
        parts = [(a @ sk - tk @ b, b @ sk.conj().T - tk.conj().T @ a) for sk, tk in zip(s, t)]
        cols.append(np.concatenate([p.ravel() for pair in parts for p in pair]))
    return np.array(cols).T


def fit_and_status_against_both_loops(monkeypatch, phi, tol=DEFAULT_TOL, seed=0):
    """Whether the library's fit and the two-loop fit find a pair, and the
    is_completely_contractive status with each fit in place."""
    found = cb._fit_conjugation_pair(phi, tol, seed) is not None
    want = conjugation_fit_both_loops(phi, tol, seed) is not None
    status = cb.is_completely_contractive(phi, tol, seed).status
    with monkeypatch.context() as patch:
        patch.setattr(cb, "_fit_conjugation_pair", conjugation_fit_both_loops)
        want_status = cb.is_completely_contractive(phi, tol, seed).status
    return (found, status), (want, want_status)


def conjugation_choi_by_units(u, v):
    """Choi matrix sum_ij e_ij (x) Phi(e_ij), unit by unit, of the unital
    2x2 completion of x -> u x v:  Phi([[a, x], [y, b]]) is
    [[u a u* + tr(a) (1 - u u*)/m, u x v], [v* y u*, v* b v + tr(b) (1 - v* v)/n]]."""
    (kr, m), (n, kc) = u.shape, v.shape
    ni, no = m + n, kr + kc

    def completion(z):
        out = np.zeros((no, no), complex)
        a, x, y, b = z[:m, :m], z[:m, m:], z[m:, :m], z[m:, m:]
        out[:kr, :kr] = u @ a @ u.conj().T + np.trace(a) * (np.eye(kr) - u @ u.conj().T) / m
        out[:kr, kr:] = u @ x @ v
        out[kr:, :kr] = v.conj().T @ y @ u.conj().T
        out[kr:, kr:] = v.conj().T @ b @ v + np.trace(b) * (np.eye(kc) - v.conj().T @ v) / n
        return out

    choi = np.zeros((ni * no, ni * no), complex)
    for i in range(ni):
        for j in range(ni):
            e = np.zeros((ni, ni), complex)
            e[i, j] = 1.0
            choi[i * no : (i + 1) * no, j * no : (j + 1) * no] = completion(e)
    return choi


def choi_min_eigenvalue_dense(choi):
    """Least eigenvalue of the Hermitian part of a Choi matrix, by a dense
    eigensolve; +inf for an empty one."""
    return float(np.linalg.eigvalsh((choi + choi.conj().T) / 2.0).min(initial=np.inf))


def choi_block_by_units(phi):
    """Off-diagonal Choi block of phi P_S, P_S the HS projection onto the
    domain, one unit at a time: block (i, j) of the (m kr) x (n kc) matrix
    is phi(P_S e_ij) = sum_k conj(s_k[i, j]) t_k."""
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    out = np.zeros((m * kr, n * kc), complex)
    for i in range(m):
        for j in range(n):
            image = sum(np.conj(s[i, j]) * t for s, t in zip(phi.domain.basis, phi.image_stack))
            out[i * kr : (i + 1) * kr, j * kc : (j + 1) * kc] = image
    return out


def choi_block_witness_defects(phi, witness):
    """(block defect, least eigenvalue, pinned defect) of a Choi witness of
    phi's completion, rows (i, u) for m + n inputs i and kr + kc outputs u:
    its block on rows (i < m, u < kr) and columns (m + j, kr + v) against
    choi_block_by_units, its dense least eigenvalue, and the largest
    deviation of the map it defines, applied block by block, from the two
    identity corners and from [[0, s], [0, 0]] -> [[0, phi(s)], [0, 0]] on
    the domain basis."""
    m, n = phi.domain.shape
    kr, kc = phi.codomain_shape
    ni, no = m + n, kr + kc
    rows = [i * no + u for i in range(m) for u in range(kr)]
    cols = [(m + j) * no + kr + v for j in range(n) for v in range(kc)]
    block = float(np.abs(witness[np.ix_(rows, cols)] - choi_block_by_units(phi)).max())

    def apply(x):
        return sum(x[i, j] * witness[i * no : (i + 1) * no, j * no : (j + 1) * no] for i in range(ni) for j in range(ni))

    pairs = [
        (np.diag([1.0] * m + [0.0] * n), np.diag([1.0] * kr + [0.0] * kc)),
        (np.diag([0.0] * m + [1.0] * n), np.diag([0.0] * kr + [1.0] * kc)),
    ]
    for s, t in zip(phi.domain.basis, phi.image_stack):
        x, want = np.zeros((ni, ni), complex), np.zeros((no, no), complex)
        x[:m, m:], want[:kr, kr:] = s, t
        pairs.append((x, want))
    pinned = max(float(np.abs(apply(x) - want).max()) for x, want in pairs)
    return block, choi_min_eigenvalue_dense(witness), pinned


def _psd_project(c):
    h = (c + c.conj().T) / 2.0
    w, v = np.linalg.eigh(h)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.conj().T
    return (out + out.conj().T) / 2.0


def dykstra_dense(gs, targets, ni, no, tol, max_iter):
    """Dykstra between the PSD cone and the pinned affine set on the whole
    Choi matrix, one dense eigensolve per projection and an exact PSD test
    of every affine iterate.  Returns (status, point, residual, iterations)
    with status FEASIBLE, or UNDECIDED on stall / iteration cap."""
    shape4 = (ni, no, ni, no)
    gs_conj = gs.conj()
    psd_floor = -tol.eq_tol
    c4 = cb._pinned_adjoint(gs_conj, targets)  # least-norm affine point
    viol = cb._pinned_values(c4, gs) - targets
    q = np.zeros(shape4, complex)
    best = np.inf
    best_point = None
    window = 250
    last_improvement = 0
    for it in range(max_iter):
        # affine projection; viol is the constraint violation of c4
        y4 = c4 - cb._pinned_adjoint(gs_conj, viol)
        y = y4.reshape(ni * no, ni * no)
        # the affine iterate satisfies the constraints exactly; it certifies
        # feasibility as soon as it is (almost) positive semidefinite
        ymin = float(np.linalg.eigvalsh((y + y.conj().T) / 2.0).min())
        if ymin >= psd_floor:
            return "FEASIBLE", _psd_project(y), max(0.0, -ymin), it + 1
        z = _psd_project((y4 + q).reshape(ni * no, ni * no))
        z4 = z.reshape(shape4)
        q = y4 + q - z4
        viol = cb._pinned_values(z4, gs) - targets
        res = float(np.linalg.norm(viol))
        if res < best * (1.0 - 1e-4):
            best, best_point, last_improvement = res, z, it
        if res <= tol.sdp_tol:
            return "FEASIBLE", z, res, it + 1
        if it - last_improvement > window and best > 10.0 * tol.sdp_tol:
            return "UNDECIDED", best_point, best, it + 1
        c4 = z4
    return "UNDECIDED", best_point, best, max_iter


def pinned_values_by_einsum(c4, gs):
    """Block combination sum_ij g_ij C_ij of a 4-index (i, u, j, v) Choi
    array per pinned direction g, by einsum."""
    return np.einsum("gij,iujv->guv", gs, c4)


def pinned_adjoint_by_einsum(gs, vals):
    """The adjoint of that map: block (i, j) is sum_g conj(g_ij) V_g, by einsum."""
    return np.einsum("gij,guv->iujv", gs.conj(), vals)


def min_opnorm_grid(particular, directions, span=3.0, steps=61, refine=4):
    """Coarse-to-fine grid minimization of the operator norm over an affine
    set with at most two real directions."""
    dirs = list(directions)
    if not dirs:
        return np.linalg.norm(particular, 2)
    center = np.zeros(len(dirs))
    width = span
    best = None
    for _ in range(refine):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        best = None
        for idx in np.ndindex(*grids[0].shape):
            coeff = np.array([g[idx] for g in grids])
            w = particular + sum(c * d for c, d in zip(coeff, dirs))
            val = np.linalg.norm(w, 2)
            if best is None or val < best[0]:
                best = (val, coeff)
        center = best[1]
        width = width * 2.2 / steps
    return best[0]


def _rank(rows, floor):
    """Numerical rank; the cutoff is 1e-9 times the top singular value,
    floored at 1e-9 * floor."""
    if len(rows) == 0:
        return 0
    s = np.linalg.svd(np.asarray(rows), compute_uv=False)
    return int(np.sum(s > 1e-9 * max(floor, s[0] if s.size else 0.0)))


def _orthonormal_basis(mats, tol, absolute=False):
    """SVD basis of the span.  The cutoff is tol, times the top singular
    value unless ``absolute``."""
    flat = np.stack([np.asarray(m, dtype=complex).ravel() for m in mats])
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    cutoff = tol if absolute else tol * s[0]
    rank = int(np.sum(s > cutoff)) if s.size and s[0] > 0 else 0
    return [vh[k].reshape(np.shape(mats[0])) for k in range(rank)]


def is_nilpotent_by_powers(mats, tol=1e-9):
    """Does the algebra spanned by mats (assumed product-closed) vanish at some power?

    Forms A^(k+1) = span{x b : x in A^k, b in A} from explicit products of
    orthonormal bases.  Each power lies inside the one before, so the loop
    ends when a power has rank 0 (nilpotent) or the rank stops falling.  Unit
    factors give O(1) products, so the rank takes an absolute cutoff of tol.
    """
    basis = _orthonormal_basis(mats, tol) if len(mats) else []
    power = basis
    while power:
        nxt = _orthonormal_basis([x @ b for x in power for b in basis], tol, absolute=True)
        if len(nxt) >= len(power):
            return False
        power = nxt
    return True


def predicates_by_products(mats, tol=1e-9):
    """Algebra predicates from explicit products of an orthonormal basis.

    The basis is an SVD basis of the span of ``mats``, so the answers do not
    depend on how the span was presented.  Returns a dict with the keys
    commutative, anticommuting, three_commutative, idempotent,
    annihilator_dims (left, right), commutator_dim, c_faithful and
    radical_dim.  Products of orthonormal basis elements have an O(1) scale,
    so the rank of the products (idempotent means rank d) takes an absolute
    cutoff of tol.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    basis = _orthonormal_basis(mats, tol)
    d = len(basis)

    def rel(x, ref):
        return np.linalg.norm(x) / max(1.0, np.linalg.norm(ref))

    prod = [[bi @ bj for bj in basis] for bi in basis]
    commutative = all(rel(prod[i][j] - prod[j][i], prod[i][j]) <= tol for i in range(d) for j in range(d))
    anticommuting = all(rel(prod[i][j] + prod[j][i], prod[i][j]) <= tol for i in range(d) for j in range(d))
    three = True
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ref = prod[i][j] @ basis[k]
                for p, q, r in ((j, i, k), (i, k, j), (k, j, i), (j, k, i), (k, i, j)):
                    if rel(prod[p][q] @ basis[r] - ref, ref) > tol:
                        three = False

    def kernel_dim(elements, side):
        """dim of {y : (sum_a y_a e_a) b = 0 for all b} ("left") or b (...) = 0."""
        if not elements:
            return 0
        cols = []
        for e in elements:
            acts = [e @ b if side == "left" else b @ e for b in basis]
            cols.append(np.concatenate([a.ravel() for a in acts]))
        return len(elements) - _rank(np.stack(cols, axis=1), 1.0)

    idempotent = d == 0 or len(_orthonormal_basis([p for row in prod for p in row], tol, absolute=True)) == d
    annihilator_dims = (kernel_dim(basis, "left"), kernel_dim(basis, "right"))
    comms = [
        prod[i][j] - prod[j][i]
        for i in range(d)
        for j in range(i + 1, d)
        if rel(prod[i][j] - prod[j][i], prod[i][j]) > tol
    ]
    commutator_dim = 0
    c_faithful = True
    if comms:
        cflat = np.stack([c.ravel() for c in comms])
        _, cs, cvh = np.linalg.svd(cflat, full_matrices=False)
        commutator_dim = int(np.sum(cs > tol * cs[0]))
        ideal = [cvh[k].reshape(mats[0].shape) for k in range(commutator_dim)]
        c_faithful = kernel_dim(ideal, "left") == 0 or kernel_dim(ideal, "right") == 0
    gram = np.array([[np.trace(prod[i][j]) for j in range(d)] for i in range(d)])
    radical_dim = d - _rank(gram, 1.0) if d else 0
    return {
        "commutative": commutative,
        "anticommuting": anticommuting,
        "three_commutative": three,
        "idempotent": idempotent,
        "annihilator_dims": annihilator_dims,
        "commutator_dim": commutator_dim,
        "c_faithful": c_faithful,
        "radical_dim": radical_dim,
    }


def star_closure_of_pairs(mats, tol=1e-10):
    """Orthonormal basis (a list) of the *-algebra generated by the x y*.

    Starts from every product x y* of the given matrices and adds every
    pairwise product and every adjoint of the current basis until the
    dimension stops growing.  Ranks come from an SVD with a cutoff of tol
    times the top singular value.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    shape = (mats[0].shape[0], mats[0].shape[0])

    def orth(elements):
        flat = np.stack([e.ravel() for e in elements])
        _, s, vh = np.linalg.svd(flat, full_matrices=False)
        rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
        return [vh[k].reshape(shape) for k in range(rank)]

    basis = orth([x @ y.conj().T for x in mats for y in mats])
    while basis:
        grown = list(basis)
        grown.extend(a.conj().T for a in basis)
        grown.extend(a @ b for a in basis for b in basis)
        nxt = orth(grown)
        if len(nxt) == len(basis):
            return nxt
        basis = nxt
    return basis


def tro_by_triple_products(mats, tol=1e-10):
    """Orthonormal basis (a list) of the TRO generated by the matrices.

    Starts from the span of the matrices and adds every product x y* z of
    two current basis elements x, y and one input matrix z until the
    dimension stops growing.  That reaches every odd word x1 y1* x2 ... xk
    in the inputs, and the span of those words is closed under all triple
    products.  Ranks come from an SVD with a cutoff of tol times the top
    singular value.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    basis = _orthonormal_basis(mats, tol)
    while basis:
        grown = list(basis)
        grown.extend(x @ y.conj().T @ z for x in basis for y in basis for z in mats)
        nxt = _orthonormal_basis(grown, tol)
        if len(nxt) == len(basis):
            return nxt
        basis = nxt
    return basis


def amplify(phi, k, x):
    """Entrywise amplification: apply phi to each block of a k x k block matrix."""
    if k < 1:
        raise ValueError("amplification level must be positive")
    x = np.asarray(x, dtype=complex)
    m, n = phi.domain.shape
    if x.shape != (k * m, k * n):
        raise ValueError(f"expected a {k}x{k} block matrix of {m}x{n} blocks, got {x.shape}")
    kr, kc = phi.codomain_shape
    out = np.zeros((k * kr, k * kc), complex)
    for u in range(k):
        for v in range(k):
            block = x[u * m : (u + 1) * m, v * n : (v + 1) * n]
            try:
                out[u * kr : (u + 1) * kr, v * kc : (v + 1) * kc] = phi.apply(block)
            except ValueError as exc:
                raise ValueError(f"block ({u}, {v}) is outside the map's domain") from exc
    return out


def choi(phi):
    """Choi matrix sum_ij e_ij (x) phi(e_ij) for a map defined on all of M_n."""
    m, n = phi.domain.shape
    if m != n or phi.domain.dim != n * n:
        raise ValueError("the Choi matrix needs a map defined on a full matrix space")
    kr, kc = phi.codomain_shape
    out = np.zeros((n * kr, n * kc), complex)
    unit = np.zeros((n, n), complex)
    for i in range(n):
        for j in range(n):
            unit[i, j] = 1.0
            out[i * kr : (i + 1) * kr, j * kc : (j + 1) * kc] = phi.apply(unit)
            unit[i, j] = 0.0
    return out


def commutator_ideal_is_nilpotent(A, tol=1e-9):
    """McCoy's criterion: A is triangularizable exactly when the ideal that
    the commutators generate is nilpotent.

    The ideal is the closure of the commutator span under multiplication by
    the basis on either side; its powers J^(k+1) = span J^k J come from
    product stacks.  Unit factors give O(1) products, so ranks take an
    absolute cutoff of tol.
    """
    stack, n = A.space.stack, A.ambient
    prods = product_stack(stack, stack).reshape(A.dim, A.dim, n, n)
    comms = (prods - prods.transpose(1, 0, 2, 3)).reshape(-1, n, n)
    seed = Subspace(n, n, tuple(_orthonormal_basis(comms, tol, absolute=True)) if len(comms) else ())
    ideal = close_span(seed, lambda w: np.concatenate([product_stack(stack, w), product_stack(w, stack)]))
    power = ideal.stack
    while len(power):
        nxt = _orthonormal_basis(product_stack(power, ideal.stack), tol, absolute=True)
        if len(nxt) >= len(power):
            return False
        power = np.array(nxt).reshape(-1, n, n)
    return True


def triangularize_by_deflation(A, tol=DEFAULT_TOL):
    """Unitary triangularizing A, or None, by deflating each layer of the
    radical's kernel chain one vector at a time.

    Each step takes the eigenvalues of the compressed generic element h_w;
    for each in turn the last right singular vector of h_w - lambda is
    checked against every compressed basis element, one at a time, and the
    first common eigenvector joins the flag while the layer shrinks to its
    orthocomplement.  A layer with no common eigenvector gives None, and so
    does a strictly-lower residual above 100 eq_tol.
    """

    def common(comp, v):
        for b in comp:
            image = b @ v
            if np.linalg.norm(image - np.vdot(v, image) * v) > 100 * tol.eq_tol * max(1.0, hs_norm(b)):
                return False
        return True

    def deflate(w):
        comp, hw = w.conj().T @ A.space.stack @ w, w.conj().T @ h @ w
        for lam in np.linalg.eigvals(hw):
            vh = np.linalg.svd(hw - lam * np.eye(len(hw)))[2]
            if common(comp, vh[-1].conj()):
                return vh
        return None

    h = structure._generic_element(A)
    flag = []
    for w in structure._layers(A, tol):
        while w.shape[1]:
            vh = deflate(w)
            if vh is None:
                return None
            flag.append(w @ vh[-1].conj())
            w = w @ vh[:-1].conj().T
    unitary = np.linalg.qr(np.column_stack(flag))[0]
    rot = unitary.conj().T @ A.space.stack @ unitary
    return None if np.abs(np.tril(rot, -1)).max(initial=0.0) > 100 * tol.eq_tol else unitary


def commutant_and_center_dims(mats, tol=1e-9):
    """(dim C, dim Z(C)) for C the commutant in M_(m+n) of the dilations
    [[0, x], [x*, 0]] of the matrices and of the grading diag(1_m, -1_n), and
    Z(C) its center, the matrices that also commute with C: each a dense
    Kronecker null space of the rows 1 (x) h^T - h (x) 1 over the generators."""
    x = np.asarray(mats, complex)
    k, m, n = x.shape
    size = m + n
    gens = np.zeros((k + 1, size, size), complex)
    gens[:k, :m, m:], gens[:k, m:, :m] = x, x.conj().transpose(0, 2, 1)
    gens[k] = np.diag([1.0] * m + [-1.0] * n)

    def commutant(hs):
        eye = np.eye(size)
        rows = np.concatenate([np.kron(eye, h.T) - np.kron(h, eye) for h in hs])
        _, s, vh = np.linalg.svd(rows, full_matrices=False)  # rows outnumber the N^2 columns
        rank = int(np.sum(s > tol * max(1.0, s[0])))
        return vh[rank:].conj().reshape(-1, size, size)

    c = commutant(gens)
    return len(c), len(commutant(np.concatenate([gens, c])))


def block_shape_by_ranks(tro_basis, left_projection):
    """(a, b, m) of the block M_(a,b) tensor 1_m of a TRO W with left support p.

    The block's corner p L p of the linking algebra L = span(W W*) has
    dimension a^2, p has rank a m, and p W has dimension a b; each is a rank
    count of explicitly formed matrices.  None when the counts do not fit.
    """
    p = np.asarray(left_projection, dtype=complex)
    corner = _rank([(p @ x @ y.conj().T @ p).ravel() for x in tro_basis for y in tro_basis], 1.0)
    a = math.isqrt(corner)
    support = _rank(p, 1.0)
    slice_dim = _rank([(p @ x).ravel() for x in tro_basis], 1.0)
    if a < 1 or a * a != corner or support % a or slice_dim % a:
        return None
    return a, slice_dim // a, support // a


def completely_isometric_kept_sets(space, left_projections, right_projections, tol=None, seed=0):
    """Every set of blocks whose compression is completely isometric on the space.

    The sweep over all 2^r - 1 nonempty sets of blocks: the compression
    x -> p x q to a set's blocks must be injective on the space (a rank
    count over the basis) and its inverse completely contractive.  The
    compression itself is one, as p and q are contractions.  The set of all
    blocks, where the compression is the identity, is included unchecked.
    """
    r = len(left_projections)
    found = [frozenset(range(r))]
    for size in range(1, r):
        for kept in itertools.combinations(range(r), size):
            p = sum(left_projections[k] for k in kept)
            q = sum(right_projections[k] for k in kept)
            images = tuple(p @ x @ q for x in space.basis)
            if _rank([im.ravel() for im in images], 1.0) < space.dim:
                continue
            phi = LinearMapOnSubspace(space, images, space.shape)
            if cb.is_completely_contractive(cb.inverse_map(phi, tol), tol, seed).status == cb.FEASIBLE:
                found.append(frozenset(kept))
    return found


def random_triangular_algebra(n, dim, seed, tol=DEFAULT_TOL):
    """The sampler one seed at a time: draw 1 to dim strictly upper
    matrices, half of them sparsified, close their span under products, and
    draw again while the draw is empty or the closure exceeds dim."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        k = int(rng.integers(1, dim + 1))
        mats = []
        for _ in range(k):
            m = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
            if rng.random() < 0.5:
                m = m * (rng.random((n, n)) < 0.45)
            if hs_norm(m) > tol.eq_tol:
                mats.append(m)
        if not mats:
            continue
        closed = close_span(mats, lambda w: product_stack(w, w), tol, (n, n))
        if 0 < closed.dim <= dim:
            return verify_algebra(closed, tol)
    raise ArithmeticError("could not sample an algebra within the dimension bound")


def draws_two_calls(seed, upper, dim, tol):
    """The draws of `examples._draws` for one seed, each matrix's real and
    imaginary parts taken by two generator calls."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        mats = []
        for _ in range(int(rng.integers(1, dim + 1))):
            m = np.where(upper, rng.standard_normal(upper.shape) + 1j * rng.standard_normal(upper.shape), 0.0)
            if rng.random() < 0.5:
                m = m * (rng.random(upper.shape) < 0.45)
            if hs_norm(m) > tol.eq_tol:
                mats.append(m)
        if mats:
            yield mats
    raise ArithmeticError("could not sample an algebra within the dimension bound")


def subspace_key_by_span(space):
    """The key of `cli._subspace_keys` for one span, from that span's own
    projector."""
    # the rounded projector onto the span, with the -0.0 that rounding leaves
    # for -1e-17 cleared, depends on the span and not on the basis; a 16-byte
    # digest of it keeps the cache small.  hashlib loads OpenSSL, which
    # numpy's generators have loaded by the time a search keys a span, so
    # it is imported here and not with the module
    import hashlib

    stack = space.stack.reshape(space.dim, -1)
    proj = stack.conj().T @ stack
    return hashlib.blake2b((np.round(proj, 8) + 0.0).tobytes(), digest_size=16).digest()


def product_table_by_products(A, env, tol=DEFAULT_TOL):
    """Entry (i, j): b_i b_j carried into the envelope by the embedding,
    not read from the structure tensor."""
    return np.array([[env.embedding.apply(bi @ bj, tol) for bj in A.basis] for bi in A.basis])


def verdict_by_dense_system(A, env, tol=DEFAULT_TOL):
    """The reversibility verdict of A in its envelope, read by the rule of
    `decide_reversible` from the dense solve of the reversed table, and
    that solution."""
    table = product_table_by_products(A, env, tol)
    _, _, sol = pairing_solve_by_dense_system(env.embedding.image_stack, table.transpose(1, 0, 2, 3), env.envelope, tol)
    if sol.status != "NONE":
        return "YES", sol
    if env.status == "EXACT" and sol.op_norm_lower > 1.0 + tol.sdp_tol:
        return "NO", sol
    return "UNDECIDED", sol


def search_signatures(ambient, trials, seed, max_dim, tol=DEFAULT_TOL):
    """Signature counts of `cli.run_search`, each trial sampled on its own,
    each distinct span decided once by the dense pairing solve and
    classified by explicit products."""
    counts, cache = {}, {}
    for trial_seed in np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials):
        A = random_triangular_algebra(ambient, max_dim, int(trial_seed), tol)
        key = subspace_key_by_span(A.space)
        if key not in cache:
            pred = predicates_by_products(A.basis, tol.eq_tol)
            verdict, _ = verdict_by_dense_system(A, injective_envelope(A.space, tol, seed), tol)
            cache[key] = (
                f"dim={A.dim} commutative={pred['commutative']} anticommuting={pred['anticommuting']} "
                f"three_commutative={pred['three_commutative']} reversible={verdict}"
            )
        counts[cache[key]] = counts.get(cache[key], 0) + 1
    return counts
