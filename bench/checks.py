"""Output checks that do not call opalg.

Every check takes opalg's answer together with the inputs the benchmark
generated and returns a list of failure messages; an empty list is a PASS.
The expected values are properties of the inputs computed here with plain
numpy (products, column spaces, explicitly assembled block matrices, a grid
search) or theorems of the source paper, never stored program output.
"""

from __future__ import annotations

import numpy as np

# relative residual below which an identity between matrices counts as exact
EQ = 1e-6
# products of unit-norm inputs below this norm count as zero
ZERO = 1e-10

PREDICATE_KEYS = (
    "dimension", "ambient", "commutative", "anticommuting", "three_commutative",
    "idempotent", "left_faithful", "right_faithful", "c_faithful", "radical_dim",
)
VERDICT_KEYS = ("reversible", "symmetric", "triangularizable")


def from_wire(m) -> np.ndarray:
    """Matrix from the report's [real, imag] pair format."""
    a = np.asarray(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def op_norm(x) -> float:
    return float(np.linalg.norm(x, 2)) if np.size(x) else 0.0


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def square_zero(mats) -> bool:
    """A^2 = 0, from the products of the spanning matrices."""
    return all(
        np.linalg.norm(x @ y) <= ZERO * max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
        for x in mats for y in mats
    )


def range_projection(columns) -> np.ndarray:
    """Orthogonal projection onto the joint column space of the matrices."""
    u, s, _ = np.linalg.svd(np.hstack(columns), full_matrices=False)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0])))
    return u[:, :rank] @ u[:, :rank].conj().T


def supports(mats):
    """(p, q): projections onto the joint column space and the joint row space."""
    return range_projection(list(mats)), range_projection([x.conj().T for x in mats])


def pairing(mats, z, reversed_product: bool, sdp_tol: float) -> list:
    """b_i z* b_j equals b_i b_j (or b_j b_i when reversed), and |z| <= 1 + sdp_tol."""
    name = "w" if reversed_product else "z"
    out = []
    zs = z.conj().T
    worst = 0.0
    for bi in mats:
        for bj in mats:
            target = bj @ bi if reversed_product else bi @ bj
            scale = max(1.0, np.linalg.norm(bi) * np.linalg.norm(bj))
            worst = max(worst, np.linalg.norm(bi @ zs @ bj - target) / scale)
    if worst > EQ:
        out.append(f"{name}: pairing residual {worst:.3e}")
    if op_norm(z) > 1.0 + sdp_tol:
        out.append(f"{name}: operator norm {op_norm(z):.9f} exceeds 1 + sdp_tol")
    return out


def analysis(mats, rep: dict) -> tuple:
    """Checks on one `analyze_algebra` report of the span of `mats`.

    Returns (failures, implicated predicate keys).  The keys let the
    invariance check of a conjugate skip predicates this report already
    got wrong.
    """
    out, bad = [], set()
    pred, ver = rep["predicates"], rep["verdicts"]
    sdp_tol = rep["tolerances"]["sdp_tol"]
    for name, reversed_product in (("z", False), ("w", True)):
        if rep.get(name) is not None:
            out += pairing(mats, from_wire(rep[name]), reversed_product, sdp_tol)
        elif ver.get("reversible") == "YES":
            out.append(f"reversible but no {name} reported")
    env = rep.get("envelope") or {}
    if env.get("status") == "EXACT":
        total = sum(r * c for r, c in env["dims"])
        if total != env["dimension"]:
            out.append(f"envelope blocks {env['dims']} hold {total} entries, dimension {env['dimension']}")
    if square_zero(mats) and pred["idempotent"]:
        out.append("A^2 = 0 but reported idempotent")
        bad.add("idempotent")
    rev = ver.get("reversible")
    if rev == "YES" and not pred["three_commutative"]:
        out.append("reversible but not 3-commutative")
    if pred["anticommuting"] and rev != "YES":
        out.append(f"anticommuting but reversible={rev}")
    if rev == "YES" and not pred["commutative"]:
        for key in ("idempotent", "left_faithful", "right_faithful", "c_faithful"):
            if pred[key]:
                out.append(f"reversible and noncommutative but {key}")
                bad.add(key)
    return out, bad


def invariance(rep: dict, ref: dict, skip=()) -> list:
    """Predicates and verdicts of a conjugate equal those of the original."""
    out = []
    for group, keys in (("predicates", PREDICATE_KEYS), ("verdicts", VERDICT_KEYS)):
        for key in keys:
            if key in skip:
                continue
            a, b = rep[group].get(key), ref[group].get(key)
            if a != b:
                out.append(f"{key}: {a} on the conjugate, {b} on the original")
    return out


def family_envelope(mats, rep: dict) -> list:
    """z = pq and w = -pq with p, q the supports of the input matrices."""
    p, q = supports(mats)
    pq = p @ q
    out = []
    for name, sign in (("z", 1.0), ("w", -1.0)):
        if rep.get(name) is None:
            out.append(f"{name} missing")
            continue
        err = np.linalg.norm(from_wire(rep[name]) - sign * pq)
        if err > EQ * max(1.0, np.linalg.norm(pq)):
            out.append(f"{name} differs from {'' if sign > 0 else '-'}pq by {err:.3e}")
    return out


def blockwise(x: np.ndarray, shape_in, fn) -> np.ndarray:
    """Apply fn to every block of an amplified element, assembled by hand."""
    m, n = shape_in
    level = x.shape[0] // m
    rows = []
    for u in range(level):
        rows.append([fn(x[u * m:(u + 1) * m, v * n:(v + 1) * n]) for v in range(level)])
    return np.block(rows)


def violation(x, shape_in, fn, cb_norm: float) -> list:
    """An INFEASIBLE witness: amplified norm ratio above 1, at most the cb norm."""
    if x is None or x.shape[0] % shape_in[0] or x.shape[1] % shape_in[1]:
        return ["witness is not an amplified element of the domain"]
    nx = op_norm(x)
    ratio = op_norm(blockwise(x, shape_in, fn)) / nx if nx else 0.0
    if not 1.0 < ratio <= cb_norm * (1.0 + 1e-9):
        return [f"amplified norm ratio {ratio:.9f} not in (1, {cb_norm:.6g}]"]
    return []


def psd_witness(w, size: int, psd_tol: float) -> list:
    """A FEASIBLE witness: a Hermitian positive semidefinite Choi matrix."""
    if w is None or w.shape != (size, size):
        return [f"witness shape {None if w is None else w.shape}, expected {(size, size)}"]
    scale = max(1.0, op_norm(w))
    if np.linalg.norm(w - w.conj().T) > EQ * scale:
        return ["witness is not Hermitian"]
    low = float(np.linalg.eigvalsh((w + w.conj().T) / 2).min())
    if low < -psd_tol * scale:
        return [f"witness eigenvalue {low:.3e} is negative"]
    return []


def decision(outcome, expected: str) -> list:
    if outcome.status != expected:
        return [f"status {outcome.status}, expected {expected} ({outcome.notes})"]
    return []


def in_affine_set(w, particular, directions) -> float:
    """Distance from w to particular + real span of directions."""
    flat = lambda m: np.concatenate([m.real.ravel(), m.imag.ravel()])
    basis = np.stack([flat(d) for d in directions], axis=1)
    delta = flat(w - particular)
    coeff, *_ = np.linalg.lstsq(basis, delta, rcond=None)
    return float(np.linalg.norm(basis @ coeff - delta))


def min_norm(result, particular, directions, best_known: float) -> list:
    """The reported minimum is attained in the set and no worse than best_known."""
    out = []
    if result.argmin is None:
        return ["no minimizer returned"]
    if in_affine_set(result.argmin, particular, directions) > EQ:
        out.append("minimizer lies outside the affine set")
    if abs(op_norm(result.argmin) - result.min_norm) > EQ:
        out.append("reported minimum is not the minimizer's norm")
    if result.min_norm > best_known + EQ * max(1.0, best_known):
        out.append(f"minimum {result.min_norm:.9f} above the known {best_known:.9f}")
    return out


def grid_min_opnorm(particular, directions, span=3.0, steps=61, refine=4) -> float:
    """Coarse-to-fine grid minimum of |particular + sum c_k d_k| over real c."""
    dirs = np.stack(directions)
    center = np.zeros(len(directions))
    width = span
    best = None
    for _ in range(refine):
        axes = np.meshgrid(*[np.linspace(c - width, c + width, steps) for c in center], indexing="ij")
        coeffs = np.stack([a.ravel() for a in axes], axis=1)
        cands = particular + np.einsum("gk,kij->gij", coeffs, dirs)
        norms = np.linalg.norm(cands, 2, axis=(1, 2))
        k = int(np.argmin(norms))
        best, center = float(norms[k]), coeffs[k]
        width = width * 2.2 / steps
    return best


def search_summary(summary: dict, trials: int) -> int:
    """Trials whose signature breaks a theorem, or every trial if the counts are off.

    In M_3 no algebra is both noncommutative and reversible; reversible
    implies 3-commutative; anticommuting implies reversible.
    """
    sigs = summary["signatures"]
    if summary["trials"] != trials or sum(sigs.values()) != trials or summary["noncommutative_reversible"]:
        return trials
    failed = 0
    for sig, count in sigs.items():
        f = dict(part.split("=", 1) for part in sig.split())
        rev = f["reversible"] == "YES"
        if (rev and f["commutative"] != "True") or (rev and f["three_commutative"] != "True") \
                or (f["anticommuting"] == "True" and not rev):
            failed += count
    return failed
