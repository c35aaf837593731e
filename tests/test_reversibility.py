import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import commutation_predicates, is_anticommuting, verify_algebra
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
    decide_reversibles,
    pairing_consistency,
    solve_pairing,
)
from opalg.tro import EnvelopeResult, block_decompose, generate_tro, injective_envelope, injective_envelopes

from .oracles import (
    pairing_consistency_by_loops,
    pairing_residual_by_einsum,
    pairing_solve_by_dense_system,
    pairing_system_by_einsum,
    pairing_system_bruteforce,
    predicates_by_products,
    product_table_by_products,
    verdict_by_dense_system,
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


def factored_spectrum(monkeypatch, basis, mu, tro):
    """The pairings over a TRO and the singular values of the last SVD its
    factorization took, which is that of the system; a single system is
    factored as a batch of one."""
    original, spectra = np.linalg.svd, []

    def recording(*args, **kwargs):
        out = original(*args, **kwargs)
        spectra.append(out[1][0])
        return out

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", recording)
        pairings = Pairings(basis, mu, tro, DEFAULT_TOL)
    return pairings, spectra[-1] if spectra else np.zeros(0)


def assert_same_spectrum(name, s, ref):
    """Equal singular values up to zeros: the factored core may have fewer
    rows than the system, and the values it lacks are zero."""
    size = max(len(s), len(ref))
    s, ref = np.pad(s, (0, size - len(s))), np.pad(ref, (0, size - len(ref)))
    assert np.abs(s - ref).max(initial=0.0) <= 1e-12 * max(1.0, ref[0] if size else 0.0), name


def rectangular_case(rng):
    """A generated TRO in M_{3,5} and three of its basis elements, with the
    table b_i v0* b_j of a contraction v0 in it."""
    x = orthonormalize(list(rng.standard_normal((2, 3, 5)) + 1j * rng.standard_normal((2, 3, 5))))
    w = generate_tro(x)
    basis, v0 = w.space.stack[:3], 0.3 * w.basis[1] / op_norm(w.basis[1])
    return basis, np.array([[bi @ v0.conj().T @ bj for bj in basis] for bi in basis]), w


def test_pairing_system_and_residual_match_einsum(monkeypatch, rng):
    # the reversed-product system in the generated TRO of each corpus algebra
    # and of a conjugate, then a rectangular TRO with a solvable target: the
    # factored system has the spectrum of the one einsum materializes, and
    # the solution's residual is the one einsum reads off b_i v* b_j
    cases = []
    for name, A in corpus_and_conjugates(rng):
        n = A.ambient
        mu = product_stack(A.space.stack, A.space.stack).reshape(A.dim, A.dim, n, n)
        cases.append((name, A.space.stack, mu.transpose(1, 0, 2, 3), generate_tro(A.space)))
    cases.append(("rectangular-3x5",) + rectangular_case(rng))
    for name, basis, mu, tro in cases:
        pairings, s = factored_spectrum(monkeypatch, basis, mu, tro)
        sol = pairings.product
        ref = np.linalg.svd(pairing_system_by_einsum(basis, tro.space.stack), compute_uv=False)
        assert_same_spectrum(name, s, ref)
        if sol.element is not None:
            assert sol.residual == pytest.approx(pairing_residual_by_einsum(basis, sol.element, mu), abs=1e-12), name
    assert sol.status != "NONE" and sol.residual <= 1e-9  # the rectangular target, last, is solvable


def dense_cases(rng):
    """Product tables over generated TROs: each corpus algebra and a
    conjugate, the anticommuting family at n = 4, the rectangular TRO with
    a solvable table, the same on one basis element (a solution set with
    directions) and a random, inconsistent table."""
    algebras = list(corpus_and_conjugates(rng)) + [("anticommuting-family-4", ex.anticommuting_family(4))]
    for name, A in algebras:
        B, n = A.space.stack, A.ambient
        yield name, B, product_stack(B, B).reshape(A.dim, A.dim, n, n), generate_tro(A.space)
    basis, mu, w = rectangular_case(rng)
    yield "rectangular-3x5", basis, mu, w
    yield "rectangular-3x5-one-element", basis[:1], mu[:1, :1], w
    yield "rectangular-3x5-random", basis, rng.standard_normal(mu.shape) + 1j * rng.standard_normal(mu.shape), w


def assert_same_solution(name, got, want):
    assert (got.affine_dim, got.inconsistent, got.status) == (want.affine_dim, want.inconsistent, want.status), name
    if want.element is None:
        assert got.element is None, name
    else:
        assert hs_norm(got.element - want.element) <= 1e-9, name


def test_factored_pairing_solve_matches_the_dense_solve(monkeypatch, rng):
    # both solutions of each table, product and reversed, against one SVD of
    # the materialized d^2 pq x t system
    names = []
    for name, basis, mu, tro in dense_cases(rng):
        pairings, s = factored_spectrum(monkeypatch, basis, mu, tro)
        for label, table in (("product", mu), ("reversed", mu.transpose(1, 0, 2, 3))):
            got = getattr(pairings, label)
            ref, rank, want = pairing_solve_by_dense_system(basis, table, tro)
            assert_same_spectrum(name, s, ref)
            assert got.affine_dim == 2 * (tro.dim - rank), name
            assert_same_solution(f"{name} {label}", got, want)
        names.append((name, pairings.product.inconsistent))
    assert names[-1] == ("rectangular-3x5-random", True) and not any(bad for _, bad in names[:-1])


@pytest.mark.parametrize("factor,inconsistent", [(0.3, False), (3.0, True)])
def test_pairing_residual_near_eq_tol_is_read_from_products(rng, factor, inconsistent):
    # a solvable table plus a part outside the system's range, sized to put
    # the dense residual at factor * eq_tol * scale: ||T||^2 - ||U* T||^2
    # would leave an error near 1e-8 relative and call both inconsistent
    basis, mu, w = rectangular_case(rng)
    system = pairing_system_by_einsum(basis, w.space.stack)
    u = np.linalg.svd(system)[0][:, : w.dim]
    noise = rng.standard_normal(system.shape[0]) + 1j * rng.standard_normal(system.shape[0])
    noise -= u @ (u.conj().T @ noise)
    size = factor * DEFAULT_TOL.eq_tol * max(1.0, np.linalg.norm(mu))
    target = mu + (size / np.linalg.norm(noise)) * noise.reshape(mu.shape)
    _, _, want = pairing_solve_by_dense_system(basis, target, w)
    got = Pairings(basis, target, w, DEFAULT_TOL).product
    assert want.inconsistent == inconsistent
    assert_same_solution(f"factor {factor}", got, want)


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
    # one factorization, of a batch of one: the stacks of the b_i and of
    # the b_j^T, then the at most pq x t core; the d^2 pq x t system itself
    # is never formed.  A system with no null direction then takes the
    # norm of its one solution, a p x q matrix, once for each table
    env = injective_envelope(A.space)
    (d, p, q), t = env.embedding.image_stack.shape, env.envelope.dim
    assert calls[:2] == [(1, d * p, q), (1, d * q, p)]
    assert calls[2][0] == 1 and calls[2][1] <= p * q and calls[2][2] == t
    assert len(calls) <= 5 and set(calls[3:]) <= {(1, p, q)}
    assert all(rows < d * d * p * q for _, rows, _ in calls)
    assert rep.z is not None and rep.certificates["pairing_reversed"] is not None


def test_family_pairing_memory_stays_small(monkeypatch):
    # the materialized system of anticommuting_family(6) took a 260 MB
    # tracemalloc peak; the factored one keeps every SVD input at most pq rows
    import sys
    import tracemalloc

    from opalg import report

    A = ex.anticommuting_family(6)
    rows, original = [], np.linalg.svd

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "opalg.reversibility":
            rows.append(args[0].shape[-2])
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    tracemalloc.start()
    try:
        rep = report.analyze_algebra(A, skip={"sdp"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdicts["reversible"] == "YES"
    assert peak < 100e6
    assert max(rows) <= A.ambient**2


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
    # decide_reversibles reads the reversed solutions alone, so each stacked
    # batch of pairing systems is solved once, for the reversed table, and
    # its product table is never solved
    from opalg import cli, reversibility

    solved = []
    solve = reversibility._PairingBatch._solve

    def counting_solve(self, mu):
        solved.append(self)
        return solve(self, mu)

    monkeypatch.setattr(reversibility._PairingBatch, "_solve", counting_solve)
    monkeypatch.setattr(reversibility._PairingBatch, "product", property(lambda self: pytest.fail("product solved")))
    cli.run_search(ambient=3, trials=200, seed=1, max_dim=3, tol=DEFAULT_TOL)
    assert solved and len({id(batch) for batch in solved}) == len(solved)


def stacked_groups(rng):
    """Mixed batches of one dimension and ambient: the corpus and a
    conjugate of each, {diag(t, t) : t in M_2} and a conjugate, and ten wide
    M_3 spans whose envelopes delete a block.  Full corners share batches
    with spans that are not (diagonal-3 and strict-upper-3, split-pair and
    random-triangular-4-12)."""
    from .test_tro import WIDE_DELETING, WIDE_SAMPLE

    block = verify_algebra([np.kron(np.eye(2), unit(2, i, j)) for i in (1, 2) for j in (1, 2)])
    q = random_unitary(4, rng)
    named = list(corpus_and_conjugates(rng)) + [
        ("diag(t, t)", block),
        ("diag(t, t)~conj", verify_algebra([q @ b @ q.conj().T for b in block.basis])),
    ]
    named += [(f"wide-{i}", verify_algebra(WIDE_SAMPLE[i])) for i in WIDE_DELETING[:10]]
    groups = {}
    for name, A in named:
        groups.setdefault((A.dim, A.ambient), []).append((name, A))
    return [group for group in groups.values() if len(group) > 1]


def assert_matches_dense(name, got, want):
    """Equal status, affine dimension and inconsistency; element, residual
    and the norm bracket within 1e-9 relative (against max(1, |want|))."""
    assert (got.status, got.affine_dim, got.inconsistent) == (want.status, want.affine_dim, want.inconsistent), name
    for field in ("residual", "op_norm", "op_norm_lower"):
        g, w = getattr(got, field), getattr(want, field)
        assert (g == w) if not np.isfinite(w) else abs(g - w) <= 1e-9 * max(1.0, abs(w)), f"{name} {field}"
    if want.element is None:
        assert got.element is None, name
    else:
        assert hs_norm(got.element - want.element) <= 1e-9 * max(1.0, hs_norm(want.element)), name


def test_stacked_decisions_match_the_dense_solve_and_products(rng):
    # each batch goes through the stacked steps together; every member's
    # envelope is the one it has alone, its predicates are those of explicit
    # products, and both its solutions and its verdict are those of one SVD
    # of its materialized system
    names = ("commutative", "anticommuting", "three_commutative")
    kinds = set()
    for group in stacked_groups(rng):
        labels, algebras = zip(*group)
        envelopes = injective_envelopes([A.space for A in algebras], DEFAULT_TOL)
        verdicts = decide_reversibles(list(algebras), DEFAULT_TOL, 0, envelopes)
        predicates = commutation_predicates(list(algebras), DEFAULT_TOL)
        corners = set()
        for k, (name, A, env, verdict) in enumerate(zip(labels, algebras, envelopes, verdicts)):
            alone = injective_envelope(A.space, DEFAULT_TOL)
            assert (env.status, env.deleted_blocks, env.envelope.dim) == (
                alone.status, alone.deleted_blocks, alone.envelope.dim), name
            assert (env.blocks.blocks, env.blocks.multiplicities) == (alone.blocks.blocks, alone.blocks.multiplicities)
            want = predicates_by_products(A.basis)
            assert [bool(p[k]) for p in predicates] == [want[n] for n in names], name
            reversible, reversed_sol = verdict_by_dense_system(A, env)
            assert verdict.reversible == reversible, name
            assert_matches_dense(f"{name} reversed", verdict.pairings.reversed, reversed_sol)
            table = product_table_by_products(A, env)
            _, _, product_sol = pairing_solve_by_dense_system(env.embedding.image_stack, table, env.envelope)
            assert_matches_dense(f"{name} product", verdict.pairings.product, product_sol)
            corner = generate_tro(A.space).full_corner
            corners.add(corner)
            kinds.add((corner, bool(env.deleted_blocks), reversible))
        kinds.add(("mixed", corners == {True, False}))
    assert {(True, False, "YES"), (True, False, "NO"), (False, True, "YES"), ("mixed", True)} <= kinds


def test_stacked_pairing_batches_with_null_directions_match_the_dense_solve():
    # batches that mix systems with null directions (affine_dim 6 and 2),
    # which minimize the norm one at a time, with systems that have none
    # and an inconsistent one: each member is the dense solve of its system
    full = generate_tro(orthonormalize([unit(2, i, j) for i in (1, 2) for j in (1, 2)]))
    diag = generate_tro(orthonormalize([unit(2, 1, 1), unit(2, 2, 2)]))
    e11, e12, half = unit(2, 1, 1), unit(2, 1, 2), np.eye(2, dtype=complex) / np.sqrt(2)
    b, s = np.array([[1.0, 2j], [1.0, 2j]]), 2.7 * np.exp(0.6j)
    batches = [
        (full, [(e11, (1 + 1e-6) * e11), (e11, (1 - 1e-6) * e11), (e12, 0 * e12), (half, half @ half)]),
        (diag, [(b, s * b), (half, half @ half), (e11, e12)]),
    ]
    seen = []
    for tro, systems in batches:
        basis = np.array([[x] for x, _ in systems])
        mu = np.array([[[t]] for _, t in systems])
        members = Pairings.batch(basis, mu, [tro] * len(systems), DEFAULT_TOL)
        for k, member in enumerate(members):
            _, _, want = pairing_solve_by_dense_system(basis[k], mu[k], tro)
            assert_matches_dense(f"{tro.dim}-{k}", member.product, want)
            seen.append((want.affine_dim, want.status))
    assert seen == [(6, "NONE"), (6, "FOUND"), (6, "FOUND"), (0, "UNIQUE_IN_BALL"),
                    (2, "FOUND"), (0, "UNIQUE_IN_BALL"), (2, "NONE")]
