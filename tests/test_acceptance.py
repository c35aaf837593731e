"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line; tolerances and time budgets are stated
inline next to the assertions they govern.
"""

import time

import numpy as np

from opalg import examples as ex
from opalg.algebra import (
    is_anticommuting,
    is_commutative,
    is_three_commutative,
    radical,
    verify_algebra,
    wedderburn_split,
)
from opalg.cb import FEASIBLE, INFEASIBLE, is_complete_isometry, is_completely_contractive, is_symmetric_space
from opalg.cli import main, run_search, theorem_violations
from opalg.linalg import (
    LinearMapOnSubspace,
    ToleranceConfig,
    contains,
    hs_norm,
    op_norm,
    orthonormalize,
    random_unitary,
)
from opalg.report import analyze_algebra
from opalg.reversibility import certify_reversal_element, decide_reversible, solve_pairing
from opalg.structure import triangularize
from opalg.tro import block_decompose, generate_tro, injective_envelope, support_projections

from .oracles import amplify, pairing_system_bruteforce, radical_by_composition_series

unit = ex.matrix_unit


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_car_pair_pipeline():
    t0 = time.perf_counter()
    A = ex.car_pair()
    w_tro = generate_tro(A.space)
    ok = w_tro.dim == 9
    ok &= all(contains(w_tro.space, unit(4, i, j)) for i in (1, 2, 3) for j in (2, 3, 4))
    ok &= len(block_decompose(w_tro).blocks) == 1
    env = injective_envelope(A.space)
    ok &= env.status == "EXACT"
    pq = np.diag([0, 1.0, 1.0, 0]).astype(complex)
    pairings = solve_pairing(A, env)
    z = pairings.product
    ok &= z.element is not None and hs_norm(z.element - pq) <= 1e-7
    w = pairings.reversed
    ok &= w.element is not None and hs_norm(w.element + pq) <= 1e-7
    ok &= decide_reversible(A).reversible == "YES"
    ok &= not is_commutative(A)
    ok &= is_three_commutative(A)
    ok &= is_anticommuting(A)
    ok &= is_symmetric_space(A.space).status == FEASIBLE
    ok &= all(hs_norm(a @ z.element.conj().T @ a) <= 1e-9 for a in A.basis)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 5.0
    report(1, ok, f"two-generator pipeline in {elapsed:.2f}s (budget 5s)")


def test_criterion_2_strict_upper_m3():
    t0 = time.perf_counter()
    A = ex.strict_upper(3)
    env = injective_envelope(A.space)
    ok = env.status == "EXACT"
    ok &= env.blocks.blocks == ((2, 2),)
    ok &= all(contains(env.envelope.space, unit(3, i, j)) for i in (1, 2) for j in (2, 3))
    ok &= is_three_commutative(A)
    # the brute-force pairing system over the corner is inconsistent, so the
    # verdict must come from inconsistency rather than a norm bound
    corner = [unit(3, 1, 2), unit(3, 1, 3), unit(3, 2, 2), unit(3, 2, 3)]
    residual, _ = pairing_system_bruteforce(list(A.basis), corner, reversed_product=True)
    ok &= residual > 1e-6
    sol = solve_pairing(A, env).reversed
    ok &= sol.status == "NONE" and sol.inconsistent
    ok &= decide_reversible(A).reversible == "NO"
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 5.0
    report(2, ok, f"strictly upper 3x3 not reversible in {elapsed:.2f}s (budget 5s)")


def test_criterion_3_family_n2():
    t0 = time.perf_counter()
    A = ex.anticommuting_family(2)
    env = injective_envelope(A.space)
    ok = env.status == "EXACT" and env.blocks.blocks == ((5, 5),)
    p, q = support_projections(generate_tro(A.space))
    pq = p @ q
    pairings = solve_pairing(A, env)
    z, w = pairings.product, pairings.reversed
    ok &= z.element is not None and hs_norm(z.element - pq) <= 1e-7
    ok &= w.element is not None and hs_norm(w.element + pq) <= 1e-7
    ok &= decide_reversible(A).reversible == "YES"
    ok &= not is_commutative(A)
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 30.0
    report(3, ok, f"anticommuting family n=2 pipeline in {elapsed:.2f}s (budget 30s)")


def test_criterion_4_isometry_example():
    t0 = time.perf_counter()
    s = 1j * np.eye(1, dtype=complex)
    A = ex.isometry_algebra(s)
    ok = certify_reversal_element(A, ex.isometry_reversal_element(s))
    uv = np.kron(unit(4, 1, 4), s)
    vu = np.kron(unit(4, 1, 4), np.eye(1, dtype=complex))
    for (alpha, beta), expect in (((1.0, 0.0), 1.0), ((3.0, 4.0), 5.0), ((1.0, 1.0), np.sqrt(2.0))):
        ok &= abs(op_norm(alpha * uv + beta * vu) - expect) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 10.0
    report(4, ok, f"isometry example certified in {elapsed:.2f}s (budget 10s)")


def test_criterion_5_cb_decisions():
    full = orthonormalize([unit(2, i, j) for i in (1, 2) for j in (1, 2)])
    transpose = LinearMapOnSubspace(full, tuple(b.T for b in full.basis), (2, 2))
    out = is_completely_contractive(transpose)
    ok = out.status == INFEASIBLE
    x = out.witness
    level = x.shape[0] // 2
    ok &= level == 2
    ratio = op_norm(amplify(transpose, level, x)) / op_norm(x)
    ok &= ratio >= 2.0 - 1e-6
    A = ex.car_pair()
    tr_a = LinearMapOnSubspace(A.space, tuple(b.T for b in A.basis), (4, 4))
    ok &= is_complete_isometry(tr_a).status == FEASIBLE
    for space in (full, A.space):
        ident = LinearMapOnSubspace(space, tuple(space.basis), space.shape)
        ok &= is_completely_contractive(ident).status == FEASIBLE
    report(5, ok, f"transpose level-2 violation ratio {ratio:.6f} >= 2 - 1e-6, identity and restricted transpose feasible")


def test_criterion_6_triangularization():
    rng = np.random.default_rng(42)
    A = ex.car_pair()
    worst_res = 0.0
    worst_unit = 0.0
    count = 0
    for k in range(100):
        if k % 2 == 0:
            base = A
        else:
            base = ex.random_triangular_algebra(4, 4, 1000 + k)
        q = random_unitary(4, rng)
        B = verify_algebra([q @ b @ q.conj().T for b in base.basis])
        res = triangularize(B)
        assert res is not None, f"triangularization failed at sample {k}"
        worst_res = max(worst_res, res.residual)
        worst_unit = max(
            worst_unit,
            hs_norm(res.unitary.conj().T @ res.unitary - np.eye(4)),
        )
        count += 1
    full2 = verify_algebra([unit(2, i, j) for i in (1, 2) for j in (1, 2)])
    failed = triangularize(full2) is None
    ok = count == 100 and worst_res <= 1e-8 and worst_unit <= 1e-10 and failed
    report(6, ok, f"100 conjugates triangularized, residual {worst_res:.2e} <= 1e-8, unitarity {worst_unit:.2e} <= 1e-10, full M_2 fails")


def test_criterion_7_theorem_consistency_sweep():
    corpus = ex.corpus()
    assert len(corpus) >= 20
    violations = [
        f"{name}: {v}"
        for name, A in corpus
        for v in theorem_violations(A, analyze_algebra(A, skip={"sdp", "triangularize"}).to_dict())
    ]
    ok = not violations
    report(7, ok, f"{len(corpus)} algebras swept, violations: {violations or 'none'}")


def test_criterion_8_wedderburn_and_radical():
    A = verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)])
    split = wedderburn_split(A)
    ok = not split.radical_only
    ok &= split.unital_part.dim == 1
    ok &= contains(split.unital_part.space, np.diag([1.0, 1.0, 0, 0]).astype(complex))
    ok &= split.nilpotent_part.dim == 1
    ok &= contains(split.nilpotent_part.space, unit(4, 3, 4))
    cross = max(
        hs_norm(c @ k)
        for c in split.unital_part.basis
        for k in split.nilpotent_part.basis
    )
    ok &= cross == 0.0
    U = ex.upper_triangular(2)
    rad = radical(U)
    ok &= rad.dim == 1 and contains(rad, unit(2, 1, 2))
    coeffs = radical_by_composition_series(list(U.basis))
    oracle = orthonormalize(
        [sum(c * b for c, b in zip(row, U.basis)) for row in coeffs], shape=(2, 2)
    )
    ok &= oracle.dim == 1 and contains(oracle, unit(2, 1, 2))
    report(8, ok, "wedderburn split exact and radical matches the nilpotent-ideal oracle")


def test_criterion_9_search_ambient_3():
    t0 = time.perf_counter()
    summary = run_search(ambient=3, trials=10000, seed=20240817, max_dim=3, tol=ToleranceConfig())
    elapsed = time.perf_counter() - t0
    hits = summary["noncommutative_reversible"]
    reversible_noncomm = [
        sig for sig in summary["signatures"]
        if "reversible=YES" in sig and "commutative=False" in sig
    ]
    ok = hits == [] and reversible_noncomm == [] and elapsed <= 600.0
    report(9, ok, f"10000 trials in {elapsed:.1f}s (budget 600s), zero noncommutative reversible hits")


def test_criterion_10_reproduce_exits_zero(capsys):
    code = main(["reproduce"])
    out = capsys.readouterr().out
    ok = code == 0 and "FAIL" not in out
    with capsys.disabled():
        report(10, ok, "reproduce command exits 0 with every expectation asserted")
