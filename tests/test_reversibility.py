import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import is_anticommuting, verify_algebra
from opalg.linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    contains,
    hs_norm,
    identity_map,
    op_norm,
    orthonormalize,
    product_stack,
    random_unitary,
)
from opalg.reversibility import (
    Pairings,
    certify_reversal_element,
    decide_reversible,
    pairing_consistency,
    solve_pairing,
)
from opalg.tro import EnvelopeResult, block_decompose, generate_tro, injective_envelope

from .oracles import (
    pairing_consistency_by_loops,
    pairing_residual_by_einsum,
    pairing_system_by_einsum,
    pairing_system_bruteforce,
)

unit = ex.matrix_unit


def envelope_in(tro, embedding):
    """A hand-built envelope: the given TRO, and the embedding carrying the
    algebra into it."""
    return EnvelopeResult(tro, "CANDIDATE", (), embedding, block_decompose(tro))


def test_pairing_car_pair(car_pair, pq):
    env = injective_envelope(car_pair.space)
    pairings = solve_pairing(car_pair, env)
    z = pairings.product
    assert z.status == "UNIQUE_IN_BALL"
    assert z.affine_dim == 0
    assert hs_norm(z.element - pq) <= 1e-7
    assert z.op_norm == pytest.approx(1.0, abs=1e-9)
    w = pairings.reversed
    assert w.status == "UNIQUE_IN_BALL"
    assert hs_norm(w.element + pq) <= 1e-7


def test_pairing_strict_upper_reversed_inconsistent():
    A = ex.strict_upper(3)
    env = injective_envelope(A.space)
    sol = solve_pairing(A, env).reversed
    assert sol.status == "NONE" and sol.inconsistent
    # independent oracle over the handwritten corner basis
    corner = [unit(3, 1, 2), unit(3, 1, 3), unit(3, 2, 2), unit(3, 2, 3)]
    residual, _ = pairing_system_bruteforce(list(A.basis), corner, reversed_product=True)
    assert residual > 0.5


def test_pairing_strict_upper_product_found():
    A = ex.strict_upper(3)
    env = injective_envelope(A.space)
    sol = solve_pairing(A, env).product
    assert sol.status == "UNIQUE_IN_BALL"
    assert hs_norm(sol.element - unit(3, 2, 2)) <= 1e-9
    corner = [unit(3, 1, 2), unit(3, 1, 3), unit(3, 2, 2), unit(3, 2, 3)]
    residual, v = pairing_system_bruteforce(list(A.basis), corner, reversed_product=False)
    assert residual <= 1e-12
    assert hs_norm(v - unit(3, 2, 2)) <= 1e-9


def test_pairing_oracle_agreement_car(car_pair, pq):
    env = injective_envelope(car_pair.space)
    residual, v = pairing_system_bruteforce(
        list(car_pair.basis), list(env.envelope.basis), reversed_product=True
    )
    assert residual <= 1e-12
    assert hs_norm(v + pq) <= 1e-9


def test_pairing_ambient_mismatch(car_pair):
    other = generate_tro(orthonormalize([unit(2, 1, 2)]))
    with pytest.raises(ValueError):
        solve_pairing(car_pair, envelope_in(other, identity_map(car_pair.space)))


def test_decide_reversible_verdicts(car_pair):
    assert decide_reversible(car_pair).reversible == "YES"
    assert decide_reversible(ex.strict_upper(3)).reversible == "NO"
    verdict = decide_reversible(ex.diagonal_algebra(3))
    assert verdict.reversible == "YES"


def test_commutative_pairings_coincide():
    A = ex.diagonal_algebra(3)
    env = injective_envelope(A.space)
    pairings = solve_pairing(A, env)
    z, w = pairings.product, pairings.reversed
    assert z.element is not None and w.element is not None
    assert hs_norm(z.element - w.element) <= 1e-9


def test_certify_reversal_element(car_pair):
    assert certify_reversal_element(car_pair, -np.eye(4, dtype=complex))
    assert not certify_reversal_element(ex.upper_triangular(2), unit(2, 2, 2))
    with pytest.raises(ValueError):
        certify_reversal_element(car_pair, 3.0 * np.eye(4, dtype=complex))


def test_certify_isometry_example():
    for s in (np.eye(1, dtype=complex), 1j * np.eye(1, dtype=complex),
              np.array([[0, 1], [-1, 0]], complex)):
        A = ex.isometry_algebra(s)
        w = ex.isometry_reversal_element(s)
        assert op_norm(w) <= 1.0 + 1e-12
        assert certify_reversal_element(A, w)


def test_certify_commutative_with_solved_pairing():
    A = ex.diagonal_algebra(2)
    env = injective_envelope(A.space)
    z = solve_pairing(A, env).product
    # the certificate takes the middle element, the adjoint of the ball element
    assert certify_reversal_element(A, z.element.conj().T)


def test_pairing_consistency_car(car_pair, pq):
    rep = pairing_consistency(car_pair, pq, -pq)
    assert all(rep.derived_commutative.values())
    assert rep.interchange_ok
    assert not rep.z_equals_w
    assert not rep.commutative
    assert rep.consistent


def test_pairing_consistency_commutative():
    A = ex.diagonal_algebra(2)
    env = injective_envelope(A.space)
    pairings = solve_pairing(A, env)
    z, w = pairings.product.element, pairings.reversed.element
    rep = pairing_consistency(A, z, w)
    assert rep.z_equals_w and rep.commutative and rep.consistent


def corpus_and_conjugates(rng):
    for name, A in ex.corpus():
        q = random_unitary(A.ambient, rng)
        yield name, A
        yield name + "~conj", verify_algebra([q @ b @ q.conj().T for b in A.basis])


def anticommuting_inputs(rng):
    """The anticommuting corpus entries and a conjugate of each, the family
    at n = 3, and the anticommuting spans of the wide M_3 sample."""
    from .test_tro import WIDE_SAMPLE

    for name, A in corpus_and_conjugates(rng):
        if is_anticommuting(A):
            yield name, A
    yield "anticommuting-family-3", ex.anticommuting_family(3)
    for i, space in enumerate(WIDE_SAMPLE):
        A = verify_algebra(space)
        if is_anticommuting(A):
            yield f"wide-{i}", A


def test_anticommuting_algebras_are_reversible_through_the_solve(rng):
    # every anticommuting algebra is reversible (-1 would do), and the
    # verdict carries the pairing minimizer w that settled it: checked with
    # numpy alone, b_i w* b_j = b_j b_i and |w| <= 1 + sdp_tol
    names = []
    for name, A in anticommuting_inputs(rng):
        verdict = decide_reversible(A)
        assert verdict.reversible == "YES", name
        w, B = verdict.pairings.reversed.element, np.asarray(A.basis)
        assert np.linalg.norm(w, 2) <= 1.0 + DEFAULT_TOL.sdp_tol, name
        for i, j in np.ndindex(len(B), len(B)):
            scale = max(1.0, np.linalg.norm(B[i], 2) * np.linalg.norm(B[j], 2))
            assert np.linalg.norm(B[i] @ w.conj().T @ B[j] - B[j] @ B[i]) <= DEFAULT_TOL.eq_tol * scale, name
        names.append(name)
    assert sum(n.startswith("wide-") for n in names) == 16 and len(names) == 2 * 10 + 1 + 16


def test_pairing_system_and_residual_match_einsum(monkeypatch, rng):
    # the reversed-product system in the generated TRO of each corpus algebra
    # and of a conjugate, then a rectangular TRO with a solvable target
    cases = []
    for name, A in corpus_and_conjugates(rng):
        n = A.ambient
        mu = product_stack(A.space.stack, A.space.stack).reshape(A.dim, A.dim, n, n)
        cases.append((name, A.space.stack, mu.transpose(1, 0, 2, 3), generate_tro(A.space)))
    x = orthonormalize(list(rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))))
    w = generate_tro(x)
    basis, v0 = w.space.stack[:3], 0.3 * w.basis[1] / op_norm(w.basis[1])
    mu = np.array([[bi @ v0.conj().T @ bj for bj in basis] for bi in basis])
    cases.append(("rectangular-3x5", basis, mu, w))
    original = np.linalg.svd
    for name, basis, mu, tro in cases:
        factorized = []
        monkeypatch.setattr(np.linalg, "svd", lambda a, *r, **k: factorized.append(a) or original(a, *r, **k))
        sol = Pairings(basis, mu, tro, DEFAULT_TOL).product
        monkeypatch.setattr(np.linalg, "svd", original)
        d, m, n = basis.shape  # the solve orders its rows (i, a, j, c), the oracle (i, j, a, c)
        ref = pairing_system_by_einsum(basis, tro.space.stack).reshape(d, d, m, n, -1).transpose(0, 2, 1, 3, 4)
        ref = ref.reshape(-1, tro.dim)
        assert np.abs(factorized[0] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), name
        if sol.element is not None:
            assert sol.residual == pytest.approx(pairing_residual_by_einsum(basis, sol.element, mu), abs=1e-12), name
    assert sol.status != "NONE" and sol.residual <= 1e-9  # the rectangular target, last, is solvable


def test_pairing_consistency_matches_loops(rng, car_pair, pq):
    # random middle factors make every identity fail by an O(1) amount
    cases = [("car-pair-solved", car_pair, pq, -pq)]
    for name, A in corpus_and_conjugates(rng):
        z, w = (rng.standard_normal((2, A.ambient, A.ambient)) + 1j * rng.standard_normal((2, A.ambient, A.ambient)))
        cases.append((name, A, z / op_norm(z), w / op_norm(w)))
    for name, A, z, w in cases:
        rep = pairing_consistency(A, z, w)
        derived, interchange = pairing_consistency_by_loops(A.basis, z, w)
        assert rep.derived_commutative == {k: v <= DEFAULT_TOL.eq_tol for k, v in derived.items()}, name
        assert rep.derived_residual == pytest.approx(max(derived.values()), rel=1e-9, abs=1e-12), name
        assert rep.interchange_residual == pytest.approx(interchange, rel=1e-9, abs=1e-12), name
        assert rep.interchange_ok == (interchange <= DEFAULT_TOL.eq_tol), name


def test_jordan_identity_car(car_pair, pq):
    # both pairings square every element to zero here
    for a in car_pair.basis:
        assert hs_norm(a @ pq.conj().T @ a) <= 1e-9
        assert hs_norm(a @ (-pq).conj().T @ a) <= 1e-9
        assert hs_norm(a @ a) <= 1e-9


def test_pairing_table_minimizes_norm_along_complex_null_directions():
    # over the diagonal TRO, b v* b = s b with b = u w^T, u = (1, 1), w = (1, 2i)
    # says a - 2i b = conj(s) for v = diag(a, b).  The minimum-norm solution
    # conj(s) (1, 2i) / 5 has norm 2|s|/5 = 1.08; the contraction of least
    # norm is diag(conj(s), i conj(s)) / 3, of norm |s|/3 = 0.9, and reaching
    # it needs a complex multiple of the null direction diag(2i, 1).
    s = 2.7 * np.exp(0.6j)
    b = np.array([[1.0, 2j], [1.0, 2j]])
    diag = generate_tro(orthonormalize([unit(2, 1, 1), unit(2, 2, 2)]))
    sol = Pairings([b], [[s * b]], diag, DEFAULT_TOL).product
    assert sol.affine_dim == 2 and not sol.inconsistent
    assert sol.status == "FOUND"  # the unit ball holds more solutions than the minimizer
    expected = np.diag([np.conj(s), 1j * np.conj(s)]) / 3
    assert hs_norm(sol.element - expected) <= 1e-5
    assert abs(sol.op_norm - 0.9) <= 1e-6


@pytest.mark.parametrize("s, status", [(1 + 1e-6, "NONE"), (1 - 1e-6, "FOUND")])
def test_pairing_decided_by_the_norm_bracket(s, status):
    # e11 v* e11 = s e11 pins v_11 = s and leaves v_12, v_21, v_22 free:
    # 6 real directions, least norm s.  Just outside the ball the lower
    # bound must refute; just inside, the argmin must certify
    full = generate_tro(orthonormalize([unit(2, i, j) for i in (1, 2) for j in (1, 2)]))
    e11 = unit(2, 1, 1)
    sol = Pairings([e11], [[s * e11]], full, DEFAULT_TOL).product
    assert sol.affine_dim == 6 and not sol.inconsistent
    assert sol.status == status
    assert sol.op_norm_lower <= s <= sol.op_norm + 1e-12
    if status == "NONE":
        assert sol.element is None
        assert sol.op_norm_lower > 1.0 + DEFAULT_TOL.sdp_tol
    else:
        assert op_norm(sol.element) <= 1.0
        assert hs_norm(e11 @ sol.element.conj().T @ e11 - s * e11) <= 1e-12


def test_reversal_uniqueness_sampling(car_pair):
    env = injective_envelope(car_pair.space)
    sol = solve_pairing(car_pair, env).reversed
    # the full solution set is a point, so uniqueness in the ball is automatic
    assert sol.affine_dim == 0 and sol.status == "UNIQUE_IN_BALL"


def test_pairing_not_unique_in_larger_tro():
    # a square-zero algebra solved inside the full matrix TRO has a large
    # solution set, and small perturbations stay inside the ball
    nil = verify_algebra([unit(2, 1, 2)])
    full = generate_tro(orthonormalize([unit(2, i, j) for i in (1, 2) for j in (1, 2)]))
    sol = solve_pairing(nil, envelope_in(full, identity_map(nil.space))).reversed
    assert sol.status == "FOUND"
    assert sol.affine_dim == 6
    assert sol.op_norm <= 1e-9


def test_corner_family_discrimination():
    # A = span{a e13 + b e24, c e12 + d e34, e14}: the two generator products
    # are (ad) e14 and (cb) e14.  Ratio -1 is the anticommuting point, +1 the
    # commutative one; everything else must be refused.
    def family(a, b, c, d):
        x = a * unit(4, 1, 3) + b * unit(4, 2, 4)
        y = c * unit(4, 1, 2) + d * unit(4, 3, 4)
        return verify_algebra([x, y, unit(4, 1, 4)])

    assert decide_reversible(family(1, 1, 1, -1)).reversible == "YES"  # anticommuting
    assert decide_reversible(family(1, 1, 1, 1)).reversible == "YES"   # commutative
    assert decide_reversible(family(1, 2, 1, 1)).reversible == "NO"
    rng = np.random.default_rng(5)
    for _ in range(4):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        verdict = decide_reversible(family(a, b, c, d))
        ratio = (a * d) / (c * b)
        if abs(ratio - 1) > 1e-6 and abs(ratio + 1) > 1e-6:
            assert verdict.reversible == "NO"


def test_shift_family_certificates_verify():
    # these are not anticommuting for n >= 3 yet still reversible; check the
    # solved certificate by direct multiplication
    for n in (3, 4):
        A = ex.shift_family(n)
        env = injective_envelope(A.space)
        assert env.status == "EXACT"
        sol = solve_pairing(A, env).reversed
        assert sol.status == "UNIQUE_IN_BALL"
        w = sol.element
        worst = max(
            hs_norm(bi @ w.conj().T @ bj - bj @ bi)
            for bi in A.basis
            for bj in A.basis
        )
        assert worst <= 1e-12
        assert contains(env.envelope.space, w)


def test_verdicts_invariant_under_conjugation(rng, car_pair):
    from opalg.linalg import random_unitary

    pq = np.diag([0, 1.0, 1.0, 0]).astype(complex)
    for base, expect in ((car_pair, "YES"), (ex.strict_upper(3), "NO")):
        for _ in range(3):
            q = random_unitary(base.ambient, rng)
            B = verify_algebra([q @ b @ q.conj().T for b in base.basis])
            env = injective_envelope(B.space)
            assert env.status == "EXACT"
            assert decide_reversible(B).reversible == expect
            if expect == "YES":
                z = solve_pairing(B, env).product
                assert hs_norm(z.element - q @ pq @ q.conj().T) <= 1e-6


def test_car_three_generated_algebra_refuted():
    # the generated algebra of three anticommutation generators: both
    # refutations carry their own certificates (inconsistent system inside an
    # exact envelope; explicit norm-expanding amplified element)
    from opalg.cb import INFEASIBLE, is_symmetric_space

    _, A3 = ex.car_generators(3)
    env = injective_envelope(A3.space)
    assert env.status == "EXACT"
    sol = solve_pairing(A3, env).reversed
    assert sol.status == "NONE" and sol.inconsistent
    assert decide_reversible(A3).reversible == "NO"
    assert is_symmetric_space(A3.space).status == INFEASIBLE


def test_family_n3_pairings():
    A = ex.anticommuting_family(3)
    env = injective_envelope(A.space)
    p, q = np.diag([1.0] * 7 + [0.0]).astype(complex), np.diag([0.0] + [1.0] * 7).astype(complex)
    pairings = solve_pairing(A, env)
    z, w = pairings.product, pairings.reversed
    assert hs_norm(z.element - p @ q) <= 1e-7
    assert hs_norm(w.element + p @ q) <= 1e-7
    assert decide_reversible(A).reversible == "YES"


@pytest.mark.parametrize("make", [lambda: ex.strict_upper(3), ex.car_pair], ids=["strict-upper-3", "car-pair"])
def test_analyze_solves_each_pairing_system_once(monkeypatch, make):
    # the product system and the reversed one share one factorization, and
    # the report reads both from the pairings decide_reversible solved
    import sys

    from opalg import report

    A = make()
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "opalg.reversibility":
            calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rep = report.analyze_algebra(A, skip={"sdp"})
    assert len(calls) == 1
    assert rep.z is not None and rep.certificates["pairing_reversed"] is not None


def test_pairings_in_a_conjugated_envelope(rng, car_pair, pq):
    # the envelope holds q A q*, not A: both systems must be posed on the
    # transported basis q b q*, where z = q pq q* and w = -q pq q* solve them
    q = random_unitary(4, rng)
    images = tuple(q @ b @ q.conj().T for b in car_pair.basis)
    tro = generate_tro(orthonormalize(list(images)))
    assert not all(contains(tro.space, b) for b in car_pair.basis)
    pairings = solve_pairing(car_pair, envelope_in(tro, LinearMapOnSubspace(car_pair.space, images, (4, 4))))
    z, w = pairings.product, pairings.reversed
    assert z.residual <= DEFAULT_TOL.eq_tol and w.residual <= DEFAULT_TOL.eq_tol
    assert hs_norm(z.element - q @ pq @ q.conj().T) <= 1e-7
    assert hs_norm(w.element + q @ pq @ q.conj().T) <= 1e-7
    assert contains(tro.space, z.element) and contains(tro.space, w.element)


def test_search_solves_only_the_reversed_system(monkeypatch):
    # decide_reversible reads the reversed solution alone, so each call
    # minimizes the pairing norm at most once
    from opalg import cb, cli, reversibility

    minimized, per_call = [], []
    decide, minimize = reversibility.decide_reversible, cb.min_opnorm_affine

    def counting_decide(*args, **kwargs):
        before = len(minimized)
        verdict = decide(*args, **kwargs)
        per_call.append(len(minimized) - before)
        return verdict

    def counting_minimize(*args, **kwargs):
        minimized.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(reversibility, "decide_reversible", counting_decide)
    monkeypatch.setattr(cb, "min_opnorm_affine", counting_minimize)
    cli.run_search(ambient=3, trials=200, seed=1, max_dim=3, tol=DEFAULT_TOL)
    assert per_call and max(per_call) <= 1
    assert sum(per_call) > 0
