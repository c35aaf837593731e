"""Command line interface: analyze one algebra, reproduce the built-in
corpus expectations, or search random triangular algebras.

Exit codes: 0 ok, 2 parse error, 3 input is not an algebra, 4 every
iteration-capped verdict came back undecided.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import algebra as alg
from . import cb, examples, reversibility, structure, tro
from .linalg import ToleranceConfig, contains, hs_norm, null_space, op_norm
from .report import analyze_algebra, matrix_to_wire, parse_input


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(eq_tol=args.tol, sdp_tol=args.sdp_tol, max_iter=args.max_iter)


def _capped(tol: ToleranceConfig) -> ToleranceConfig:
    """The tolerances with the iteration cap of the reproduce sweeps."""
    return dataclasses.replace(tol, max_iter=min(tol.max_iter, 4000))


def _add_common(parser):
    parser.add_argument("--tol", type=float, default=1e-9, help="equality tolerance")
    parser.add_argument("--sdp-tol", type=float, default=1e-7, help="feasibility tolerance")
    parser.add_argument("--max-iter", type=int, default=50000, help="iteration cap for the feasibility solvers")
    parser.add_argument("--seed", type=int, default=0)


def cmd_analyze(args) -> int:
    tol = _tolerances(args)
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        mats = parse_input(payload)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        A = alg.verify_algebra(mats, tol)
    except alg.NotAnAlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    skip = set(args.skip or [])
    report = analyze_algebra(A, tol, skip, args.seed)
    payload = report.to_dict()
    if args.pretty:
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload))
    undecided = [
        k for k in ("reversible", "symmetric")
        if report.verdicts.get(k) == "UNDECIDED"
    ]
    checked = [
        k for k in ("reversible", "symmetric")
        if report.verdicts.get(k) not in (None, "SKIPPED")
    ]
    if checked and len(undecided) == len(checked):
        return 4
    return 0


# ---------------------------------------------------------------------------
# reproduce


class _Table:
    def __init__(self):
        self.rows = []
        self.failed = 0

    def check(self, group, key, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed += 1
        self.rows.append((group, key, status, detail))

    def info(self, group, key, detail):
        self.rows.append((group, key, "INFO", detail))

    def dump(self):
        width = max((len(f"{g}:{k}") for g, k, _, _ in self.rows), default=10)
        for g, k, status, detail in self.rows:
            label = f"{g}:{k}".ljust(width)
            line = f"{label}  {status}"
            if detail:
                line += f"  {detail}"
            print(line)
        print(f"{len(self.rows)} checks, {self.failed} failures")


def _close(a, b, tol=1e-9):
    return hs_norm(np.asarray(a) - np.asarray(b)) <= tol * max(1.0, hs_norm(np.asarray(b)))


def _reproduce_car_pair(t: _Table, tol, seed):
    g = "car-pair"
    A = examples.car_pair(tol)
    eu = examples.matrix_unit
    t.check(g, "dimension", A.dim == 3)
    vu = eu(4, 1, 4)
    t.check(g, "vu-in-span", contains(A.space, vu, tol))
    t.check(g, "anticommuting", alg.is_anticommuting(A, tol))
    t.check(g, "not-commutative", not alg.is_commutative(A, tol))
    t.check(g, "three-commutative", alg.is_three_commutative(A, tol))
    comm = alg.commutator_subspace(A, tol)
    t.check(g, "commutators-span-e14", comm.dim == 1 and contains(comm, vu, tol))
    t.check(g, "not-idempotent", not alg.is_idempotent_algebra(A, tol))
    t.check(g, "not-left-faithful", not alg.is_left_faithful(A, tol))
    t.check(g, "not-c-faithful", not alg.is_c_faithful(A, tol))

    w_tro = tro.generate_tro(A.space, tol)
    t.check(g, "tro-dimension-9", w_tro.dim == 9)
    corner_ok = all(
        contains(w_tro.space, eu(4, i, j), tol) for i in (1, 2, 3) for j in (2, 3, 4)
    )
    t.check(g, "tro-is-upper-corner", corner_ok)
    t.check(g, "linking-dimension-9", w_tro.linking.dim == 9)
    p, q = tro.support_projections(w_tro, tol)
    t.check(g, "left-support", _close(p, np.diag([1, 1, 1, 0]).astype(complex)))
    t.check(g, "right-support", _close(q, np.diag([0, 1, 1, 1]).astype(complex)))
    pq = p @ q
    t.check(g, "supports-commute", _close(p @ q, q @ p))
    t.check(g, "pq-is-projection", _close(pq @ pq, pq))
    t.check(g, "pq-norm-one", abs(op_norm(pq) - 1.0) <= 1e-9)

    env = tro.injective_envelope(A.space, tol, seed)
    t.check(g, "envelope-exact", env.status == "EXACT")
    t.check(g, "envelope-single-3x3-block", env.blocks.blocks == ((3, 3),))
    verdict = reversibility.decide_reversible(A, tol, seed, envelope=env)
    pairings = verdict.pairings or reversibility.solve_pairing(A, env, tol)
    z_sol, w_sol = pairings.product, pairings.reversed
    t.check(g, "z-equals-pq", z_sol.element is not None and _close(z_sol.element, pq, 1e-7))
    t.check(g, "w-equals-minus-pq", w_sol.element is not None and _close(w_sol.element, -pq, 1e-7))
    t.check(g, "z-not-w", z_sol.element is not None and hs_norm(z_sol.element - w_sol.element) > 1e-3)
    t.check(g, "reversible", verdict.reversible == "YES")

    theta = examples.car_pair_symmetry_unitary()
    t.check(
        g,
        "transpose-by-conjugation",
        all(_close(theta.conj().T @ x @ theta, -x.T) for x in A.basis),
    )
    sym = cb.is_symmetric_space(A.space, tol, seed)
    t.check(g, "symmetric", sym.status == cb.FEASIBLE)
    jordan = max(
        hs_norm(a @ z_sol.element.conj().T @ a) for a in A.basis
    )
    t.check(g, "a-z-a-vanishes", jordan <= 1e-9)
    jordan_w = max(hs_norm(a @ w_sol.element.conj().T @ a) for a in A.basis)
    t.check(g, "a-w-a-vanishes", jordan_w <= 1e-9)
    cons = reversibility.pairing_consistency(A, z_sol.element, w_sol.element, tol)
    t.check(g, "one-sided-pairings-commute", all(cons.derived_commutative.values()))
    t.check(g, "middle-factors-interchange", cons.interchange_ok)
    t.check(g, "z-differs-detects-noncommutativity", cons.consistent and not cons.z_equals_w)
    emb = tro.multiplicative_embed(env.envelope, z_sol.element, tol)
    t.check(g, "pairing-becomes-multiplication", emb is not None)
    tri = structure.triangularize(A, tol)
    t.check(g, "triangularizable", tri is not None and tri.residual <= 1e-9)
    t.check(g, "strictly-upper", structure.nilpotent_part_strict(A, tri.unitary, tol))


def _reproduce_chain(t: _Table, tol, seed):
    g = "chain-family"
    for n in (1, 2):
        A = examples.anticommuting_family(n, tol)
        t.check(g, f"n{n}-dimension", A.dim == 2 * n + 1)
        t.check(g, f"n{n}-anticommuting", alg.is_anticommuting(A, tol))
        t.check(g, f"n{n}-not-commutative", not alg.is_commutative(A, tol))
        w_tro = tro.generate_tro(A.space, tol)
        t.check(g, f"n{n}-linking-full-corner", w_tro.linking.dim == (2 * n + 1) ** 2)
        p, q = tro.support_projections(w_tro, tol)
        t.check(
            g,
            f"n{n}-supports",
            _close(p, np.diag([1.0] * (2 * n + 1) + [0.0]).astype(complex))
            and _close(q, np.diag([0.0] + [1.0] * (2 * n + 1)).astype(complex)),
        )
        env = tro.injective_envelope(A.space, tol, seed)
        t.check(g, f"n{n}-envelope-exact", env.status == "EXACT")
        t.check(g, f"n{n}-envelope-block", env.blocks.blocks == ((2 * n + 1, 2 * n + 1),))
        pq = p @ q
        verdict = reversibility.decide_reversible(A, tol, seed, envelope=env)
        pairings = verdict.pairings or reversibility.solve_pairing(A, env, tol)
        z_sol, w_sol = pairings.product, pairings.reversed
        t.check(g, f"n{n}-z-pq", z_sol.element is not None and _close(z_sol.element, pq, 1e-7))
        t.check(g, f"n{n}-w-minus-pq", w_sol.element is not None and _close(w_sol.element, -pq, 1e-7))
        t.check(g, f"n{n}-reversible", verdict.reversible == "YES")
    # pairwise distance law u_i u_j = 0 for |i-j| > 1, on the raw generators
    n = 3
    A = examples.anticommuting_family(n, tol)
    size = 2 * n + 2
    raw = []
    for i in range(n):
        row1 = np.zeros(2 * n)
        row1[2 * i] = 1.0
        col1 = np.zeros(2 * n)
        col1[2 * i + 1] = 1.0
        for row, col in ((row1, col1), (col1, -row1)):
            m = np.zeros((size, size), complex)
            m[0, 1 : 2 * n + 1] = row
            m[1 : 2 * n + 1, size - 1] = col
            raw.append(m)
    far = max(
        hs_norm(raw[i] @ raw[j])
        for i in range(2 * n)
        for j in range(2 * n)
        if abs(i - j) > 1
    )
    t.check(g, "distant-products-vanish", far <= 1e-12)
    t.check(g, "n3-anticommuting", alg.is_anticommuting(A, tol))


def _reproduce_shift(t: _Table, tol, seed):
    g = "shift-family"
    for n in (1, 2, 3, 4):
        A = examples.shift_family(n, tol)
        w = examples.matrix_unit(n + 2, 1, n + 2)
        prods_in_line = all(
            hs_norm(x @ y - w * np.trace(w.conj().T @ (x @ y))) <= 1e-9
            for x in A.basis
            for y in A.basis
        )
        t.check(g, f"n{n}-products-in-one-line", prods_in_line)
        if n >= 3:
            t.check(g, f"n{n}-not-anticommuting", not alg.is_anticommuting(A, tol))
        verdict = reversibility.decide_reversible(A, tol, seed)
        t.info(g, f"n{n}-outcome",
               f"commutative={alg.is_commutative(A, tol)} reversible={verdict.reversible} dim={A.dim}")


def _reproduce_isometry(t: _Table, tol, seed):
    g = "isometry"
    for label, s in (("unit", np.eye(1, dtype=complex)), ("rotation", 1j * np.eye(1, dtype=complex))):
        A = examples.isometry_algebra(s, tol)
        m = s.shape[0]
        eu = examples.matrix_unit
        uv_expect = np.kron(eu(4, 1, 4), s)
        vu_expect = np.kron(eu(4, 1, 4), np.eye(m, dtype=complex))
        u = A.space.project(np.kron(eu(4, 1, 2), np.eye(m)) + np.kron(eu(4, 3, 4), np.eye(m)))
        v = A.space.project(np.kron(eu(4, 1, 3), np.eye(m)) + np.kron(eu(4, 2, 4), s))
        t.check(g, f"{label}-uv", _close(u @ v, uv_expect))
        t.check(g, f"{label}-vu", _close(v @ u, vu_expect))
        wmid = examples.isometry_reversal_element(s)
        t.check(g, f"{label}-reversal-certificate",
                reversibility.certify_reversal_element(A, wmid, tol=tol))
        # no strictly anticommuting element: every anticommuting solution kills A
        rows = []
        for y in A.basis:
            cols = [(b @ y + y @ b).ravel() for b in A.basis]
            rows.append(np.stack(cols, axis=1))
        strict = False
        for c in null_space(np.vstack(rows), 1e-9):
            x = np.einsum("k,kij->ij", c, A.space.stack)
            if any(hs_norm(x @ y) > 1e-9 for y in A.basis):
                strict = True
        t.check(g, f"{label}-no-strictly-anticommuting", not strict)
    s = 1j * np.eye(1, dtype=complex)
    A = examples.isometry_algebra(s, tol)
    uv = np.kron(examples.matrix_unit(4, 1, 4), s)
    vu = np.kron(examples.matrix_unit(4, 1, 4), np.eye(1, dtype=complex))
    for (alpha, beta) in ((1.0, 0.0), (3.0, 4.0), (1.0, 1.0)):
        got = op_norm(alpha * uv + beta * vu)
        t.check(
            g,
            f"norm-{alpha:g}-{beta:g}",
            abs(got - float(np.hypot(alpha, beta))) <= 1e-9,
            f"|a uv + b vu| = {got:.9f}",
        )


def _reproduce_car(t: _Table, tol, seed):
    g = "car"
    for n in (1, 2, 3):
        gens = examples.car_generator_matrices(n)
        ok = True
        for i, ci in enumerate(gens):
            for j, cj in enumerate(gens):
                if hs_norm(ci @ cj + cj @ ci) > 1e-9:
                    ok = False
                anti = ci @ cj.conj().T + cj.conj().T @ ci
                target = (1.0 if i == j else 0.0) * np.eye(ci.shape[0])
                if hs_norm(anti - target) > 1e-9:
                    ok = False
        t.check(g, f"phi{n}-relations", ok)
        t.check(g, f"phi{n}-squares-vanish", all(hs_norm(c @ c) <= 1e-12 for c in gens))
    span2, A2 = examples.car_generators(2, tol)
    sym2 = cb.is_symmetric_space(span2, tol, seed)
    t.check(g, "phi2-span-symmetric", sym2.status == cb.FEASIBLE)
    t.check(g, "phi2-algebra-matches-car-pair-structure",
            A2.dim == 3 and alg.is_anticommuting(A2, tol))
    # outcomes for n = 3 are recorded, not asserted: the negative answers are
    # expected but there is no independent witness to pin them against
    span3, A3 = examples.car_generators(3, tol)
    fast = _capped(tol)
    sym3 = cb.is_symmetric_space(A3.space, fast, seed)
    t.info(g, "phi3-algebra-symmetric", sym3.status)
    rev3 = reversibility.decide_reversible(A3, fast, seed)
    t.info(g, "phi3-algebra-reversible", rev3.reversible)


def _reproduce_strict_upper(t: _Table, tol, seed):
    g = "strict-upper"
    A = examples.strict_upper(3, tol)
    t.check(g, "m3-three-commutative", alg.is_three_commutative(A, tol))
    t.check(g, "m3-not-commutative", not alg.is_commutative(A, tol))
    env = tro.injective_envelope(A.space, tol, seed)
    t.check(g, "m3-envelope-exact", env.status == "EXACT")
    t.check(g, "m3-envelope-block-2x2", env.blocks.blocks == ((2, 2),))
    eu = examples.matrix_unit
    corner_ok = all(contains(env.envelope.space, eu(3, i, j), tol) for i in (1, 2) for j in (2, 3))
    t.check(g, "m3-envelope-is-upper-right-corner", corner_ok)
    verdict = reversibility.decide_reversible(A, tol, seed, envelope=env)
    pairings = verdict.pairings or reversibility.solve_pairing(A, env, tol)
    t.check(g, "m3-reversed-system-inconsistent", pairings.reversed.inconsistent)
    t.check(g, "m3-not-reversible", verdict.reversible == "NO")
    t.check(g, "m3-product-pairing-found", pairings.product.status == "UNIQUE_IN_BALL")
    # contrast: in M_4 the triple e12 e23 e34 is nonzero, so 3-commutativity fails
    A4 = examples.strict_upper(4, tol)
    t.check(g, "m4-not-three-commutative", not alg.is_three_commutative(A4, tol))
    env4 = tro.injective_envelope(A4.space, tol, seed)
    t.check(g, "m4-envelope-block-3x3", env4.status == "EXACT" and env4.blocks.blocks == ((3, 3),))


def _reproduce_corners(t: _Table, tol, seed):
    g = "corner-blocks"
    diag = examples.diagonal_algebra(2, tol)
    rep = reversibility.block_pairing_report(diag, tol, seed)
    t.check(g, "diagonal-two-blocks", rep.block_shapes == ((1, 1), (1, 1)))
    t.check(g, "diagonal-reconstruction", rep.ok and all(rep.left_commutative))
    nil = alg.verify_algebra([examples.matrix_unit(2, 1, 2)], tol)
    rep2 = reversibility.block_pairing_report(nil, tol, seed)
    t.check(g, "square-zero-single-block", len(rep2.block_shapes) == 1 and rep2.ok)
    # full row band in M_3: one rectangular (2, 3) block, pairing element diag(1,1,0)
    eu = examples.matrix_unit
    band = alg.verify_algebra(
        [eu(3, i, j) for i in (1, 2) for j in (1, 2, 3)], tol
    )
    rep3 = reversibility.block_pairing_report(band, tol, seed)
    t.check(g, "row-band-block-2x3", rep3.block_shapes == ((2, 3),))
    w_band = tro.generate_tro(band.space, tol)
    bs = tro.block_decompose(w_band, tol, seed)
    zk = bs.left_projections[0] @ bs.right_projections[0]
    t.check(g, "row-band-pairing-is-rect-identity", _close(zk, np.diag([1, 1, 0]).astype(complex)))
    t.check(g, "row-band-reconstruction", rep3.ok)


def _reproduce_wedderburn(t: _Table, tol, seed):
    g = "wedderburn"
    A = alg.verify_algebra(
        [np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), examples.matrix_unit(4, 3, 4)], tol
    )
    split = alg.wedderburn_split(A, tol)
    t.check(g, "split-pair-shapes", not split.radical_only
            and split.unital_part.dim == 1 and split.nilpotent_part.dim == 1)
    c_ok = contains(split.unital_part.space, np.diag([1.0, 1.0, 0, 0]).astype(complex), tol)
    k_ok = contains(split.nilpotent_part.space, examples.matrix_unit(4, 3, 4), tol)
    t.check(g, "split-pair-summands", c_ok and k_ok)
    cross = max(
        hs_norm(c @ k)
        for c in split.unital_part.basis
        for k in split.nilpotent_part.basis
    )
    t.check(g, "split-pair-orthogonal-product", cross <= 1e-12)
    rad = alg.radical(examples.upper_triangular(2, tol), tol)
    t.check(g, "upper-m2-radical", rad.dim == 1 and contains(rad, examples.matrix_unit(2, 1, 2), tol))
    t.check(g, "strict-upper-nilpotent",
            alg.wedderburn_split(examples.strict_upper(3, tol), tol).radical_only)
    srad = alg.radical(examples.strict_upper(3, tol), tol)
    t.check(g, "strict-upper-radical-is-all", srad.dim == 3)
    drad = alg.radical(examples.diagonal_algebra(3, tol), tol)
    t.check(g, "diagonal-radical-zero", drad.dim == 0)


def _reproduce_consistency(t: _Table, tol, seed):
    g = "consistency"
    fast = _capped(tol)
    violations = []
    count = 0
    for name, A in examples.corpus(tol):
        count += 1
        comm = alg.is_commutative(A, tol)
        anti = alg.is_anticommuting(A, tol)
        three = alg.is_three_commutative(A, tol)
        env = tro.injective_envelope(A.space, fast, seed)
        verdict = reversibility.decide_reversible(A, fast, seed, envelope=env)
        rev = verdict.reversible
        if rev == "YES" and not three:
            violations.append(f"{name}: reversible but not 3-commutative")
        if anti and rev != "YES":
            violations.append(f"{name}: anticommuting but reversibility {rev}")
        if rev == "YES" and not comm:
            if (alg.is_idempotent_algebra(A, tol) or alg.is_left_faithful(A, tol)
                    or alg.is_right_faithful(A, tol) or alg.is_c_faithful(A, tol)):
                violations.append(f"{name}: reversible and faithful-type but noncommutative")
        if three:
            J = alg.commutator_subspace(A, tol)
            for j in J.basis:
                for b in A.basis:
                    if hs_norm(j @ b) > 1e-8 or hs_norm(b @ j) > 1e-8:
                        violations.append(f"{name}: commutators fail to annihilate")
        if env.status == "EXACT":
            pairings = verdict.pairings or reversibility.solve_pairing(A, env, tol)
            z_sol, w_sol = pairings.product, pairings.reversed
            if z_sol.element is not None and w_sol.element is not None:
                same = hs_norm(z_sol.element - w_sol.element) <= 1e-7
                if same != comm:
                    violations.append(f"{name}: pairing equality disagrees with commutativity")
    t.check(g, "corpus-size", count >= 20, f"{count} algebras")
    t.check(g, "no-violations", not violations, "; ".join(violations[:4]))


def _reproduce_search_evidence(t: _Table, tol, seed):
    g = "search-evidence"
    summary = run_search(ambient=3, trials=300, seed=seed, max_dim=3, tol=tol)
    t.check(g, "m3-no-noncommutative-reversible", summary["noncommutative_reversible"] == [])
    hits = sum(v for k, v in summary["signatures"].items() if "reversible=YES" in k)
    t.info(g, "m3-reversible-samples", f"{hits} of {summary['trials']}")


_GROUPS = {
    "car-pair": _reproduce_car_pair,
    "chain-family": _reproduce_chain,
    "shift-family": _reproduce_shift,
    "isometry": _reproduce_isometry,
    "car": _reproduce_car,
    "strict-upper": _reproduce_strict_upper,
    "corner-blocks": _reproduce_corners,
    "wedderburn": _reproduce_wedderburn,
    "consistency": _reproduce_consistency,
    "search-evidence": _reproduce_search_evidence,
}


def cmd_reproduce(args) -> int:
    tol = _tolerances(args)
    table = _Table()
    groups = args.only or list(_GROUPS)
    for name in groups:
        _GROUPS[name](table, tol, args.seed)
    table.dump()
    return 0 if table.failed == 0 else 1


# ---------------------------------------------------------------------------
# search


def _signature(A, verdict, tol) -> tuple:
    """(signature string, whether A is a noncommutative reversible hit)."""
    commutative = alg.is_commutative(A, tol)
    parts = [
        f"dim={A.dim}",
        f"commutative={commutative}",
        f"anticommuting={alg.is_anticommuting(A, tol)}",
        f"three_commutative={alg.is_three_commutative(A, tol)}",
        f"reversible={verdict}",
    ]
    return " ".join(parts), verdict == "YES" and not commutative


def run_search(
    ambient: int, trials: int, seed: int, max_dim: int, tol: ToleranceConfig, include=()
) -> dict:
    """Classify random triangular algebras; report signatures and the
    noncommutative reversible hits.  `include` prepends known algebras to the
    sample (useful to confirm a specific basis would be flagged).  Each span
    is decided and classified once: the cache key is its rounded projector
    with signed zeros cleared, which depends on the span and not the basis."""
    rng = np.random.default_rng(seed)
    trial_seeds = rng.integers(0, 2**63 - 1, size=trials)
    signatures: dict = {}
    hits = []
    cache: dict = {}
    samples = [(None, A) for A in include]
    samples.extend((int(trial_seeds[k]), None) for k in range(trials))
    for trial_seed, preset in samples:
        A = preset if preset is not None else examples.random_triangular_algebra(
            ambient, max_dim, trial_seed, tol
        )
        if A.ambient != ambient:
            raise ValueError("included algebra does not match the search ambient")
        # the verdict and the predicates depend only on the subspace
        key = _subspace_key(A)
        if key not in cache:
            cache[key] = _signature(A, reversibility.decide_reversible(A, tol, seed).reversible, tol)
        sig, hit = cache[key]
        signatures[sig] = signatures.get(sig, 0) + 1
        if hit:
            hits.append({
                "seed": trial_seed,
                "basis": [matrix_to_wire(b) for b in A.basis],
            })
    return {
        "ambient": ambient,
        "trials": len(samples),
        "signatures": signatures,
        "noncommutative_reversible": hits,
    }


def _subspace_key(A) -> bytes:
    # the rounded projector onto the span, with the -0.0 that rounding leaves
    # for -1e-17 cleared, depends on the span and not on the basis
    stack = A.space.stack.reshape(A.dim, -1)
    proj = stack.conj().T @ stack
    return (np.round(proj, 8) + 0.0).tobytes()


def cmd_search(args) -> int:
    tol = _tolerances(args)
    summary = run_search(args.ambient, args.trials, args.seed, args.max_dim, tol)
    if args.pretty:
        print(json.dumps(summary, indent=2))
    else:
        print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="opalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="full predicate battery over one input file")
    p_an.add_argument("input", help="JSON file: {ambient, matrices}")
    p_an.add_argument("--skip", action="append", choices=["sdp", "envelope", "triangularize"])
    p_an.add_argument("--json", dest="pretty", action="store_false", default=False)
    p_an.add_argument("--pretty", dest="pretty", action="store_true")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_re = sub.add_parser("reproduce", help="check every built-in corpus expectation")
    p_re.add_argument("--only", action="append", choices=sorted(_GROUPS))
    _add_common(p_re)
    p_re.set_defaults(func=cmd_reproduce)

    p_se = sub.add_parser("search", help="classify random triangular algebras")
    p_se.add_argument("--ambient", type=int, choices=[3, 4], required=True)
    p_se.add_argument("--trials", type=int, default=1000)
    p_se.add_argument("--max-dim", type=int, default=4)
    p_se.add_argument("--json", dest="pretty", action="store_false", default=False)
    p_se.add_argument("--pretty", dest="pretty", action="store_true")
    _add_common(p_se)
    p_se.set_defaults(func=cmd_search)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
