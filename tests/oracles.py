"""Independent oracles used to validate library answers.

These deliberately avoid the library's computation paths: the radical comes
from a composition series of the natural module, pairing systems are
assembled by explicit loops over a handwritten corner basis, amplified
norms are taken from explicitly assembled block matrices, and the algebra
predicates come from explicit matrix products of pairs and triples rather
than from the structure tensor.
"""

import numpy as np


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
