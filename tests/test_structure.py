import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg import examples as ex
from opalg import report
from opalg.algebra import radical, verify_algebra, wedderburn_split
from opalg.linalg import close_span, hs_norm, product_stack, random_unitary
from opalg.structure import (
    common_eigenvector,
    nilpotent_part_strict,
    triangularize,
)

from .oracles import commutator_ideal_is_nilpotent, triangularize_by_deflation
from .test_cb import record_solvers

unit = ex.matrix_unit
M2 = [unit(2, i, j) for i in (1, 2) for j in (1, 2)]
M2_PLUS_C = [unit(3, i, j) for i in (1, 2) for j in (1, 2)] + [unit(3, 3, 3)]
C_OVER_M2 = [unit(3, 1, j) for j in (1, 2, 3)] + [unit(3, i, j) for i in (2, 3) for j in (2, 3)]


def _closed_algebra(rng, n, gens, keep, upper):
    """Algebra generated by complex Gaussian matrices, each entry kept with
    probability keep; upper triangular ones (diagonal included) if upper."""
    mats = []
    for _ in range(gens):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append((np.triu(m) if upper else m) * (rng.random((n, n)) < keep))
    closed = close_span(mats, lambda w: product_stack(w, w), shape=(n, n))
    return verify_algebra(closed) if closed.dim else None


def _upper_triangular_sample(seed):
    """n in {3, 4, 5}, 1-2 upper triangular generators, and a unitary."""
    rng = np.random.default_rng(seed)
    n, gens = int(rng.integers(3, 6)), int(rng.integers(1, 3))
    return _closed_algebra(rng, n, gens, 0.5, upper=True), random_unitary(n, rng)


def _conjugate(A, q, scale=1.0):
    return verify_algebra([scale * q @ b @ q.conj().T for b in A.basis])


def _repeated_eigenvalue_kinds(n, k, rng):
    """(kind, matrices) of algebras whose generic element repeats its
    eigenvalues on some layer of the kernel chain; k is a block size, 0 < k < n.
    Only the last kind, M_2 (x) 1_k plus a zero block, is not triangularizable."""
    eye, block = np.eye(n), np.diag([1.0] * k + [0.0] * (n - k))

    def strict():
        return np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)

    diagonal = np.diag(np.arange(n) % 2).astype(float)  # 0, 1, 0, ...: 0 repeats, and 1 too once n > 3
    m2 = np.zeros((4, 2 * k + n - k, 2 * k + n - k), complex)
    m2[:, : 2 * k, : 2 * k] = [np.kron(unit(2, i, j), np.eye(k)) for i in (1, 2) for j in (1, 2)]
    return [
        ("scalar-blocks", [block, eye - block]),
        ("unit-and-nilpotent", [eye, strict()]),
        ("c2-tensor-unit", [np.kron(np.diag([1.0, 0.0]), np.eye(k)), np.kron(np.diag([0.0, 1.0]), np.eye(k))]),
        ("upper-01-diagonal", [diagonal + strict(), strict()]),
        ("m2-tensor-unit-plus-zero", list(m2)),
    ]


def _repeated_eigenvalue_sample(seed, scale):
    """The kinds of `_repeated_eigenvalue_kinds` at n = 3 + seed % 3 and a
    seeded block size, each closed and Haar-conjugated at the scale."""
    rng = np.random.default_rng(seed)
    n = 3 + seed % 3
    out = []
    for kind, mats in _repeated_eigenvalue_kinds(n, int(rng.integers(1, n)), rng):
        size = len(mats[0])
        closed = close_span(mats, lambda w: product_stack(w, w), shape=(size, size))
        out.append((kind, _conjugate(verify_algebra(closed), random_unitary(size, rng), scale)))
    return out


def _assert_triangularized(A, bound):
    res = triangularize(A)
    assert res is not None and res.residual <= bound
    assert np.allclose(res.unitary.conj().T @ res.unitary, np.eye(A.ambient), atol=1e-10)


def test_common_eigenvector_car(car_pair):
    v = common_eigenvector(car_pair)
    assert v is not None
    for b in car_pair.basis:
        image = b @ v
        lam = np.vdot(v, image)
        assert np.linalg.norm(image - lam * v) <= 1e-9
    # the only common eigenvector direction is e1 (the common kernel)
    e1 = np.zeros(4, complex)
    e1[0] = 1.0
    assert abs(np.vdot(e1, v)) == pytest.approx(1.0, abs=1e-9)


def test_common_eigenvector_stable_under_basis_change(rng, car_pair):
    q = random_unitary(3, rng)
    mixed = [sum(q[i, j] * car_pair.basis[j] for j in range(3)) for i in range(3)]
    B = verify_algebra(mixed)
    v1 = common_eigenvector(car_pair)
    v2 = common_eigenvector(B)
    assert abs(np.vdot(v1, v2)) == pytest.approx(1.0, abs=1e-8)


def test_common_eigenvector_diagonal():
    v = common_eigenvector(ex.diagonal_algebra(2))
    assert v is not None
    assert min(abs(v[0]), abs(v[1])) <= 1e-9  # e1 or e2 up to phase


def test_common_eigenvector_full_m2_none():
    assert common_eigenvector(verify_algebra(M2)) is None


def test_common_eigenvector_in_kernel_of_radical():
    # M_2 + C: the radical is 0 and the only common eigenvector is e3
    assert abs(common_eigenvector(verify_algebra(M2_PLUS_C))[2]) == pytest.approx(1.0, abs=1e-9)
    # [[C, *], [0, M_2]]: the kernel of the radical is e1
    assert abs(common_eigenvector(verify_algebra(C_OVER_M2))[0]) == pytest.approx(1.0, abs=1e-9)


def test_triangularize_non_three_commutative_upper(rng):
    # upper triangular as given, 5-dimensional, and not 3-commutative
    g = np.array([[1, 0, -1], [0, 1, -1], [0, 0, 0]], complex)
    h = np.array([[0, -1, -1], [0, -1, 1], [0, 0, 1]], complex)
    A = verify_algebra(close_span([g, h], lambda w: product_stack(w, w), shape=(3, 3)))
    assert A.dim == 5
    _assert_triangularized(A, 1e-9)
    _assert_triangularized(_conjugate(A, random_unitary(3, rng)), 1e-9)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000), scale=st.sampled_from([1e-6, 1e6]))
def test_triangularize_upper_triangular_algebras(seed, scale):
    A, q = _upper_triangular_sample(seed)
    if A is None:
        return
    _assert_triangularized(_conjugate(A, q, scale), 1e-8)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10_000))
def test_triangularize_fails_exactly_by_mccoy(seed):
    # two sparse generators, upper triangular or not, in M_2 to M_4
    rng = np.random.default_rng(seed)
    n, upper = int(rng.integers(2, 5)), bool(rng.integers(2))
    A = _closed_algebra(rng, n, 2, 0.5 if upper else 0.3, upper)
    if A is None:
        return
    A = _conjugate(A, random_unitary(n, rng))
    assert (triangularize(A) is None) == (not commutator_ideal_is_nilpotent(A))


def test_analyze_of_a_non_three_commutative_algebra_emits_no_warning():
    # McCoy's criterion answers for every algebra, so upper-triangular-2,
    # which is not 3-commutative, is no reason to warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = report.analyze_algebra(ex.upper_triangular(2))
    assert rep.verdicts["triangularizable"] is True and not rep.predicates["three_commutative"]


def test_triangularize_already_triangular(car_pair):
    res = triangularize(car_pair)
    assert res is not None and res.residual <= 1e-9
    assert np.allclose(res.unitary.conj().T @ res.unitary, np.eye(4), atol=1e-10)


def test_triangularize_conjugates(rng, car_pair):
    for _ in range(10):
        q = random_unitary(4, rng)
        B = verify_algebra([q @ b @ q.conj().T for b in car_pair.basis])
        res = triangularize(B)
        assert res is not None and res.residual <= 1e-8


def test_triangularize_full_m2_fails():
    # M_2 + C and [[C, *], [0, M_2]] have a common eigenvector but no flag
    for mats in (M2, M2_PLUS_C, C_OVER_M2):
        assert triangularize(verify_algebra(mats)) is None


def test_triangularize_commutative_families(rng):
    for seed in range(5):
        r = np.random.default_rng(seed)
        g = np.triu(r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4)), 1)
        A = verify_algebra([g, g @ g, g @ g @ g])
        q = random_unitary(4, rng)
        B = verify_algebra([q @ b @ q.conj().T for b in A.basis])
        res = triangularize(B)
        assert res is not None and res.residual <= 1e-8


def test_triangularize_flag_invariance(rng, car_pair):
    q = random_unitary(4, rng)
    B = verify_algebra([q @ b @ q.conj().T for b in car_pair.basis])
    res = triangularize(B)
    u = res.unitary
    for j in range(1, 4):
        pj = u[:, :j] @ u[:, :j].conj().T
        for b in B.basis:
            assert hs_norm(pj @ b @ pj - b @ pj) <= 1e-8


def test_nilpotent_part_strict(car_pair):
    assert nilpotent_part_strict(ex.strict_upper(3))
    assert nilpotent_part_strict(car_pair)
    A = verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)])
    split = wedderburn_split(A)
    assert nilpotent_part_strict(split.nilpotent_part)
    # the unital summand is not strictly upper
    assert not nilpotent_part_strict(split.unital_part)


def _assert_outcome_matches_the_oracles(A):
    # one eigensolve per layer, the deflation loop and McCoy's criterion agree
    res = triangularize(A)
    assert (res is None) == (triangularize_by_deflation(A) is None) == (not commutator_ideal_is_nilpotent(A))
    if res is not None:
        assert res.residual <= 1e-8
        assert hs_norm(res.unitary.conj().T @ res.unitary - np.eye(A.ambient)) <= 1e-10


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("seed", range(6))
def test_repeated_eigenvalues_triangularize_as_the_oracles_do(seed, scale):
    sample = _repeated_eigenvalue_sample(seed, scale)
    for _, A in sample:
        _assert_outcome_matches_the_oracles(A)
    assert [(kind, triangularize(A) is None) for kind, A in sample] == [
        ("scalar-blocks", False),
        ("unit-and-nilpotent", False),
        ("c2-tensor-unit", False),
        ("upper-01-diagonal", False),
        ("m2-tensor-unit-plus-zero", True),
    ]


CORPUS = ex.corpus()


@pytest.mark.parametrize("name", [name for name, _ in CORPUS])
def test_corpus_and_a_conjugate_triangularize_as_the_oracles_do(name):
    A = dict(CORPUS)[name]
    _assert_outcome_matches_the_oracles(A)
    _assert_outcome_matches_the_oracles(_conjugate(A, random_unitary(A.ambient, np.random.default_rng(0))))


def test_random_and_named_algebras_triangularize_as_the_oracles_do():
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, upper = int(rng.integers(2, 5)), bool(rng.integers(2))
        A = _closed_algebra(rng, n, 2, 0.5 if upper else 0.3, upper)
        if A is not None:
            _assert_outcome_matches_the_oracles(_conjugate(A, random_unitary(n, rng)))
    for seed in range(10):
        A, q = _upper_triangular_sample(seed)
        for scale in (1e-6, 1.0, 1e6):
            _assert_outcome_matches_the_oracles(_conjugate(A, q, scale))
    for mats in (M2, M2_PLUS_C, C_OVER_M2):
        _assert_outcome_matches_the_oracles(verify_algebra(mats))
    # the block-multiplicity algebra {diag(t, t) : t in M_2}
    _assert_outcome_matches_the_oracles(verify_algebra([np.kron(np.eye(2), b) for b in M2]))


@pytest.mark.parametrize("conjugated", [False, True])
@pytest.mark.parametrize("name,layers", [("car-pair", 3), ("strict-upper-4", 4)])
def test_triangularize_takes_one_eigensolve_per_layer(monkeypatch, name, layers, conjugated):
    # with the radical known, one SVD null space and one eig per layer of the
    # kernel chain, and one QR.  The deflation loop took an eigvals and an SVD
    # per candidate eigenvalue at each step of each layer.
    A = dict(CORPUS)[name]
    if conjugated:
        A = _conjugate(A, random_unitary(A.ambient, np.random.default_rng(1)))
    radical(A)
    calls = record_solvers(monkeypatch, ("eig", "eigvals", "svd", "qr"))[0]
    assert triangularize(A) is not None
    assert calls == {"eig": layers, "eigvals": 0, "svd": layers, "qr": 1}
