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
from .report import analyze_algebra, matrix_from_wire, matrix_to_wire, parse_input


def _tolerances(args) -> ToleranceConfig:
    return ToleranceConfig(eq_tol=args.tol, sdp_tol=args.sdp_tol, max_iter=args.max_iter)


def _capped(tol: ToleranceConfig) -> ToleranceConfig:
    """The tolerances of reproduce: the given ones with at most 4000 iterations."""
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


def _pq(size: int) -> np.ndarray:
    """diag(0, 1, ..., 1, 0), the product of the supports of a TRO that is
    the upper right corner M_(size-1) of M_size."""
    return np.diag([0.0] + [1.0] * (size - 2) + [0.0]).astype(complex)


# (group, key, input, field path, expected): the field of the input's analyze
# report must equal `expected`.  A dict lists the subfields it must hold, a
# matrix must match within 1e-7 relative, and None prints the field as INFO.
_ROWS = (
    ("car-pair", "dimension", "car-pair", "predicates.dimension", 3),
    ("car-pair", "anticommuting", "car-pair", "predicates.anticommuting", True),
    ("car-pair", "not-commutative", "car-pair", "predicates.commutative", False),
    ("car-pair", "three-commutative", "car-pair", "predicates.three_commutative", True),
    ("car-pair", "not-idempotent", "car-pair", "predicates.idempotent", False),
    ("car-pair", "not-left-faithful", "car-pair", "predicates.left_faithful", False),
    ("car-pair", "not-c-faithful", "car-pair", "predicates.c_faithful", False),
    # nothing is deleted, so the envelope is the generated TRO, and one block
    # M_3 of multiplicity one makes the linking algebra M_3
    ("car-pair", "tro-dimension-9", "car-pair", "envelope.dimension", 9),
    ("car-pair", "linking-dimension-9", "car-pair", "envelope", {"dims": [[3, 3]], "multiplicities": [1]}),
    ("car-pair", "envelope-exact", "car-pair", "envelope.status", "EXACT"),
    ("car-pair", "envelope-single-3x3-block", "car-pair", "envelope.dims", [[3, 3]]),
    ("car-pair", "z-equals-pq", "car-pair", "z", _pq(4)),
    ("car-pair", "w-equals-minus-pq", "car-pair", "w", -_pq(4)),
    ("car-pair", "z-not-w", "car-pair", "certificates.pairing_consistency.z_equals_w", False),
    ("car-pair", "reversible", "car-pair", "verdicts.reversible", "YES"),
    ("car-pair", "symmetric", "car-pair", "verdicts.symmetric", "FEASIBLE"),
    ("car-pair", "one-sided-pairings-commute", "car-pair",
     "certificates.pairing_consistency.derived_commutative", True),
    ("car-pair", "middle-factors-interchange", "car-pair", "certificates.pairing_consistency.interchange_ok", True),
    ("car-pair", "z-differs-detects-noncommutativity", "car-pair",
     "certificates.pairing_consistency.consistent_with_commutativity", True),
    ("car-pair", "triangularizable", "car-pair", "verdicts.triangularizable", True),
    *(
        ("chain-family", f"n{n}-{key}", f"anticommuting-family-{n}", path, expected)
        for n in (1, 2)
        for key, path, expected in (
            ("dimension", "predicates.dimension", 2 * n + 1),
            ("anticommuting", "predicates.anticommuting", True),
            ("not-commutative", "predicates.commutative", False),
            ("linking-full-corner", "envelope", {"dims": [[2 * n + 1] * 2], "multiplicities": [1]}),
            ("envelope-exact", "envelope.status", "EXACT"),
            ("envelope-block", "envelope.dims", [[2 * n + 1] * 2]),
            ("z-pq", "z", _pq(2 * n + 2)),
            ("w-minus-pq", "w", -_pq(2 * n + 2)),
            ("reversible", "verdicts.reversible", "YES"),
        )
    ),
    ("chain-family", "n3-anticommuting", "anticommuting-family-3", "predicates.anticommuting", True),
    ("shift-family", "n3-not-anticommuting", "shift-family-3", "predicates.anticommuting", False),
    ("shift-family", "n4-not-anticommuting", "shift-family-4", "predicates.anticommuting", False),
    ("car", "phi2-algebra-matches-car-pair-structure", "car-span-algebra-2",
     "predicates", {"dimension": 3, "anticommuting": True}),
    # outcomes for n = 3 are recorded, not asserted: the negative answers are
    # expected but there is no independent witness to pin them against
    ("car", "phi3-algebra-symmetric", "car-span-algebra-3", "verdicts.symmetric", None),
    ("car", "phi3-algebra-reversible", "car-span-algebra-3", "verdicts.reversible", None),
    ("strict-upper", "m3-three-commutative", "strict-upper-3", "predicates.three_commutative", True),
    ("strict-upper", "m3-not-commutative", "strict-upper-3", "predicates.commutative", False),
    ("strict-upper", "m3-envelope-exact", "strict-upper-3", "envelope.status", "EXACT"),
    ("strict-upper", "m3-envelope-block-2x2", "strict-upper-3", "envelope.dims", [[2, 2]]),
    ("strict-upper", "m3-reversed-system-inconsistent", "strict-upper-3",
     "certificates.pairing_reversed.inconsistent", True),
    ("strict-upper", "m3-not-reversible", "strict-upper-3", "verdicts.reversible", "NO"),
    ("strict-upper", "m3-product-pairing-found", "strict-upper-3",
     "certificates.pairing_product.status", "UNIQUE_IN_BALL"),
    # contrast: in M_4 the triple e12 e23 e34 is nonzero, so 3-commutativity fails
    ("strict-upper", "m4-not-three-commutative", "strict-upper-4", "predicates.three_commutative", False),
    ("strict-upper", "m4-envelope-block-3x3", "strict-upper-4", "envelope", {"status": "EXACT", "dims": [[3, 3]]}),
    # each block's pairing element is p_k q_k, and z is their sum
    ("corner-blocks", "diagonal-two-blocks", "diagonal-2", "envelope.dims", [[1, 1], [1, 1]]),
    ("corner-blocks", "diagonal-reconstruction", "diagonal-2", "z", np.eye(2, dtype=complex)),
    ("corner-blocks", "square-zero-single-block", "single-nilpotent", "envelope.dims", [[1, 1]]),
    ("corner-blocks", "square-zero-reconstruction", "single-nilpotent", "z", np.zeros((2, 2), complex)),
    ("corner-blocks", "row-band-block-2x3", "row-band", "envelope.dims", [[2, 3]]),
    ("corner-blocks", "row-band-pairing-is-rect-identity", "row-band", "z", np.diag([1, 1, 0]).astype(complex)),
    ("corner-blocks", "row-band-reconstruction", "row-band", "certificates.pairing_product.status", "UNIQUE_IN_BALL"),
    ("wedderburn", "split-pair-shapes", "split-pair", "certificates.wedderburn",
     {"radical_only": False, "unital_dim": 1, "nilpotent_dim": 1}),
    ("wedderburn", "strict-upper-nilpotent", "strict-upper-3", "certificates.wedderburn.radical_only", True),
    ("wedderburn", "strict-upper-radical-is-all", "strict-upper-3", "predicates.radical_dim", 3),
    ("wedderburn", "diagonal-radical-zero", "diagonal-3", "predicates.radical_dim", 0),
)


def _field(report: dict, path: str):
    for part in path.split("."):
        report = report.get(part) if isinstance(report, dict) else None
    return report


def _matches(value, expected) -> bool:
    if isinstance(expected, dict):
        return isinstance(value, dict) and all(_matches(value.get(k), v) for k, v in expected.items())
    if isinstance(expected, np.ndarray):
        return value is not None and _close(matrix_from_wire(value), expected, 1e-7)
    return value == expected


class _Inputs:
    """The corpus and the (2, 3) row band in M_3, each analyzed the first
    time it is read; sdp runs only on the inputs named in `symmetric`."""

    def __init__(self, tol: ToleranceConfig, seed: int, symmetric: set):
        self.tol, self.seed, self.symmetric = tol, seed, symmetric
        self.corpus = examples.corpus(tol)
        eu = examples.matrix_unit
        band = alg.verify_algebra([eu(3, i, j) for i in (1, 2) for j in (1, 2, 3)], tol)
        self.algebras = {**dict(self.corpus), "row-band": band}
        self._reports = {}

    def __getitem__(self, name: str) -> dict:
        if name not in self._reports:
            skip = set() if name in self.symmetric else {"sdp"}
            self._reports[name] = analyze_algebra(self.algebras[name], self.tol, skip, self.seed).to_dict()
        return self._reports[name]


def theorem_violations(A: alg.MatrixAlgebra, report: dict) -> list:
    """The paper's theorems on one analyze report: reversible implies
    3-commutative, anticommuting implies reversible, a reversible algebra of
    faithful type is commutative, commutators annihilate a 3-commutative
    algebra, and the pairing elements agree exactly when A is commutative."""
    pred, rev = report["predicates"], report["verdicts"]["reversible"]
    out = []
    if rev == "YES" and not pred["three_commutative"]:
        out.append("reversible but not 3-commutative")
    if pred["anticommuting"] and rev != "YES":
        out.append(f"anticommuting but reversibility {rev}")
    faithful = any(pred[k] for k in ("idempotent", "left_faithful", "right_faithful", "c_faithful"))
    if rev == "YES" and not pred["commutative"] and faithful:
        out.append("reversible and faithful-type but noncommutative")
    if pred["three_commutative"] and any(
        hs_norm(j @ b) > 1e-8 or hs_norm(b @ j) > 1e-8
        for j in alg.commutator_subspace(A).basis
        for b in A.basis
    ):
        out.append("commutators fail to annihilate")
    consistency = report["certificates"].get("pairing_consistency")
    if consistency and not consistency["consistent_with_commutativity"]:
        out.append("pairing equality disagrees with commutativity")
    return out


def _car_pair(t: _Table, inputs: _Inputs):
    g, tol = "car-pair", inputs.tol
    A = inputs.algebras["car-pair"]
    eu = examples.matrix_unit
    vu = eu(4, 1, 4)
    t.check(g, "vu-in-span", contains(A.space, vu, tol))
    comm = alg.commutator_subspace(A, tol)
    t.check(g, "commutators-span-e14", comm.dim == 1 and contains(comm, vu, tol))
    w_tro = tro.generate_tro(A.space, tol)
    corner_ok = all(
        contains(w_tro.space, eu(4, i, j), tol) for i in (1, 2, 3) for j in (2, 3, 4)
    )
    t.check(g, "tro-is-upper-corner", corner_ok)
    p, q = tro.support_projections(w_tro)
    t.check(g, "left-support", _close(p, np.diag([1, 1, 1, 0]).astype(complex)))
    t.check(g, "right-support", _close(q, np.diag([0, 1, 1, 1]).astype(complex)))
    pq = p @ q
    t.check(g, "supports-commute", _close(p @ q, q @ p))
    t.check(g, "pq-is-projection", _close(pq @ pq, pq))
    t.check(g, "pq-norm-one", abs(op_norm(pq) - 1.0) <= 1e-9)
    theta = examples.car_pair_symmetry_unitary()
    t.check(
        g,
        "transpose-by-conjugation",
        all(_close(theta.conj().T @ x @ theta, -x.T) for x in A.basis),
    )
    z, w = (matrix_from_wire(inputs["car-pair"][k]) for k in ("z", "w"))
    t.check(g, "a-z-a-vanishes", max(hs_norm(a @ z.conj().T @ a) for a in A.basis) <= 1e-9)
    t.check(g, "a-w-a-vanishes", max(hs_norm(a @ w.conj().T @ a) for a in A.basis) <= 1e-9)
    # the envelope is the generated TRO (envelope-exact, tro-dimension-9)
    t.check(g, "pairing-becomes-multiplication", tro.multiplicative_embed(w_tro, z, tol) is not None)
    tri = structure.triangularize(A, tol)
    t.check(g, "strictly-upper", tri is not None and structure.nilpotent_part_strict(A, tri.unitary, tol))


def _chain(t: _Table, inputs: _Inputs):
    g = "chain-family"
    for n in (1, 2):
        w_tro = tro.generate_tro(inputs.algebras[f"anticommuting-family-{n}"].space, inputs.tol)
        p, q = tro.support_projections(w_tro)
        t.check(
            g,
            f"n{n}-supports",
            _close(p, np.diag([1.0] * (2 * n + 1) + [0.0]).astype(complex))
            and _close(q, np.diag([0.0] + [1.0] * (2 * n + 1)).astype(complex)),
        )
    # pairwise distance law u_i u_j = 0 for |i-j| > 1, on the raw generators
    raw = examples.anticommuting_generators(3)
    far = max(hs_norm(x @ y) for i, x in enumerate(raw) for j, y in enumerate(raw) if abs(i - j) > 1)
    t.check(g, "distant-products-vanish", far <= 1e-12)


def _shift(t: _Table, inputs: _Inputs):
    g = "shift-family"
    for n in (1, 2, 3, 4):
        A = inputs.algebras[f"shift-family-{n}"]
        w = examples.matrix_unit(n + 2, 1, n + 2)
        prods_in_line = all(
            hs_norm(x @ y - w * np.trace(w.conj().T @ (x @ y))) <= 1e-9
            for x in A.basis
            for y in A.basis
        )
        t.check(g, f"n{n}-products-in-one-line", prods_in_line)
        rep = inputs[f"shift-family-{n}"]
        pred = rep["predicates"]
        t.info(g, f"n{n}-outcome", f"commutative={pred['commutative']} "
               f"reversible={rep['verdicts']['reversible']} dim={pred['dimension']}")


def _isometry(t: _Table, inputs: _Inputs):
    g, tol = "isometry", inputs.tol
    eu = examples.matrix_unit
    for label, name, s in (("unit", "isometry-identity", np.eye(1, dtype=complex)),
                           ("rotation", "isometry-rotated", 1j * np.eye(1, dtype=complex))):
        A = inputs.algebras[name]
        m = s.shape[0]
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
    uv = np.kron(eu(4, 1, 4), s)
    vu = np.kron(eu(4, 1, 4), np.eye(1, dtype=complex))
    for (alpha, beta) in ((1.0, 0.0), (3.0, 4.0), (1.0, 1.0)):
        got = op_norm(alpha * uv + beta * vu)
        t.check(
            g,
            f"norm-{alpha:g}-{beta:g}",
            abs(got - float(np.hypot(alpha, beta))) <= 1e-9,
            f"|a uv + b vu| = {got:.9f}",
        )


def _car(t: _Table, inputs: _Inputs):
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
    span2, _ = examples.car_generators(2, inputs.tol)
    sym2 = cb.is_symmetric_space(span2, inputs.tol, inputs.seed)
    t.check(g, "phi2-span-symmetric", sym2.status == cb.FEASIBLE)


def _strict_upper(t: _Table, inputs: _Inputs):
    # nothing is deleted (m3-envelope-block-2x2), so the envelope is the generated TRO
    w_tro = tro.generate_tro(inputs.algebras["strict-upper-3"].space, inputs.tol)
    eu = examples.matrix_unit
    corner_ok = all(contains(w_tro.space, eu(3, i, j), inputs.tol) for i in (1, 2) for j in (2, 3))
    t.check("strict-upper", "m3-envelope-is-upper-right-corner", corner_ok)


def _wedderburn(t: _Table, inputs: _Inputs):
    g, tol = "wedderburn", inputs.tol
    split = alg.wedderburn_split(inputs.algebras["split-pair"], tol)
    c_ok = contains(split.unital_part.space, np.diag([1.0, 1.0, 0, 0]).astype(complex), tol)
    k_ok = contains(split.nilpotent_part.space, examples.matrix_unit(4, 3, 4), tol)
    t.check(g, "split-pair-summands", c_ok and k_ok)
    cross = max(
        hs_norm(c @ k)
        for c in split.unital_part.basis
        for k in split.nilpotent_part.basis
    )
    t.check(g, "split-pair-orthogonal-product", cross <= 1e-12)
    rad = alg.radical(inputs.algebras["upper-triangular-2"], tol)
    t.check(g, "upper-m2-radical", rad.dim == 1 and contains(rad, examples.matrix_unit(2, 1, 2), tol))


def _consistency(t: _Table, inputs: _Inputs):
    g = "consistency"
    violations = [f"{name}: {v}" for name, A in inputs.corpus for v in theorem_violations(A, inputs[name])]
    t.check(g, "corpus-size", len(inputs.corpus) >= 20, f"{len(inputs.corpus)} algebras")
    t.check(g, "no-violations", not violations, "; ".join(violations[:4]))


def _search_evidence(t: _Table, inputs: _Inputs):
    g = "search-evidence"
    summary = run_search(ambient=3, trials=300, seed=inputs.seed, max_dim=3, tol=inputs.tol)
    t.check(g, "m3-no-noncommutative-reversible", summary["noncommutative_reversible"] == [])
    hits = sum(v for k, v in summary["signatures"].items() if "reversible=YES" in k)
    t.info(g, "m3-reversible-samples", f"{hits} of {summary['trials']}")


# the checks of each group that are not analyze report fields; corner-blocks has none
_GROUPS = {
    "car-pair": _car_pair,
    "chain-family": _chain,
    "shift-family": _shift,
    "isometry": _isometry,
    "car": _car,
    "strict-upper": _strict_upper,
    "corner-blocks": None,
    "wedderburn": _wedderburn,
    "consistency": _consistency,
    "search-evidence": _search_evidence,
}


def cmd_reproduce(args) -> int:
    groups = args.only or list(_GROUPS)
    rows = [row for row in _ROWS if row[0] in groups]
    symmetric = {name for _, _, name, path, _ in rows if path == "verdicts.symmetric"}
    inputs = _Inputs(_capped(_tolerances(args)), args.seed, symmetric)
    table = _Table()
    for group in groups:
        for g, key, name, path, expected in rows:
            if g != group:
                continue
            value = _field(inputs[name], path)
            if expected is None:
                table.info(g, key, str(value))
            else:
                table.check(g, key, _matches(value, expected))
        if _GROUPS[group] is not None:
            _GROUPS[group](table, inputs)
    table.dump()
    return 0 if table.failed == 0 else 1


# ---------------------------------------------------------------------------
# search


def _decide(spaces, tol: ToleranceConfig, seed: int) -> list:
    """(signature string, noncommutative reversible hit, undecided) of each
    span, decided a dimension at a time: the spans of one dimension are
    certified, classified and decided as one stack of algebras."""
    out = [None] * len(spaces)
    by_dim = {}
    for i, space in enumerate(spaces):
        by_dim.setdefault(space.dim, []).append(i)
    for dim, idx in by_dim.items():
        algebras = alg.verify_algebras([spaces[i] for i in idx], tol)
        predicates = zip(*alg.commutation_predicates(algebras, tol))
        verdicts = reversibility.decide_reversibles(algebras, tol, seed)
        for i, (commutative, anticommuting, three), verdict in zip(idx, predicates, verdicts):
            rev = verdict.reversible
            sig = (
                f"dim={dim} commutative={bool(commutative)} anticommuting={bool(anticommuting)} "
                f"three_commutative={bool(three)} reversible={rev}"
            )
            out[i] = (sig, rev == "YES" and not commutative, rev == "UNDECIDED")
    return out


# trials sampled, keyed and decided together: a chunk's closures share
# batched SVDs, its cache misses are decided as stacks, and the working
# arrays do not grow with the trial count
_CHUNK = 64


def run_search(ambient: int, trials: int, seed: int, max_dim: int, tol: ToleranceConfig) -> dict:
    """Classify random triangular algebras; report signatures and the
    noncommutative reversible hits.  Each span is decided and classified
    once: the cache key is a digest of its rounded projector, which depends
    on the span and not the basis.  The trials' spans are sampled _CHUNK at
    a time, each certified closed under the product; the spans of a chunk
    that the cache has not seen are decided together, one stack per
    dimension.  The summary counts the spans
    decided (`distinct_spans`) and the trials whose verdict is UNDECIDED."""
    trial_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=trials)
    signatures: dict = {}
    hits = []
    # span key -> (signature, hit, undecided), one tuple per distinct outcome
    cache: dict = {}
    outcomes: dict = {}
    undecided = 0
    for chunk in _chunks(ambient, max_dim, trial_seeds, tol):
        keys = [_subspace_key(space) for _, space in chunk]
        misses = {}
        for key, (_, space) in zip(keys, chunk):
            if key not in cache:
                misses.setdefault(key, space)
        for key, outcome in zip(misses, _decide(list(misses.values()), tol, seed)):
            cache[key] = outcomes.setdefault(outcome, outcome)
        for key, (trial_seed, space) in zip(keys, chunk):
            sig, hit, unsettled = cache[key]
            signatures[sig] = signatures.get(sig, 0) + 1
            undecided += unsettled
            if hit:
                hits.append({
                    "seed": trial_seed,
                    "basis": [matrix_to_wire(b) for b in space.basis],
                })
    return {
        "ambient": ambient,
        "trials": trials,
        "signatures": signatures,
        "noncommutative_reversible": hits,
        "distinct_spans": len(cache),
        "undecided": undecided,
    }


def _chunks(ambient, max_dim, trial_seeds, tol):
    """Lists of (trial seed, span), the trials sampled _CHUNK at a time."""
    for start in range(0, len(trial_seeds), _CHUNK):
        chunk = [int(s) for s in trial_seeds[start : start + _CHUNK]]
        yield list(zip(chunk, examples.random_triangular_spans(ambient, max_dim, chunk, tol)))


def _subspace_key(space) -> bytes:
    # the rounded projector onto the span, with the -0.0 that rounding leaves
    # for -1e-17 cleared, depends on the span and not on the basis; a 16-byte
    # digest of it keeps the cache small.  hashlib loads OpenSSL, which
    # numpy's generators have loaded by the time a search keys a span, so
    # it is imported here and not with the module
    import hashlib

    stack = space.stack.reshape(space.dim, -1)
    proj = stack.conj().T @ stack
    return hashlib.blake2b((np.round(proj, 8) + 0.0).tobytes(), digest_size=16).digest()


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
