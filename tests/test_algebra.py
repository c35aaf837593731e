import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import (
    NotAnAlgebraError,
    NotThreeCommutativeError,
    abstract_radical_coeffs,
    annihilators,
    commutator_subspace,
    is_anticommuting,
    is_c_faithful,
    is_commutative,
    is_idempotent_algebra,
    is_left_faithful,
    is_nilpotent,
    is_right_faithful,
    is_three_commutative,
    quotient_structure,
    radical,
    verify_algebra,
    wedderburn_split,
)
from opalg.linalg import adjoints, contains, hs_norm, orthonormalize, product_stack, random_unitary
from opalg.tro import generate_tro

from .oracles import is_nilpotent_by_powers, predicates_by_products, radical_by_composition_series

unit = ex.matrix_unit


def test_verify_algebra_accepts_closed_spans(car_pair):
    assert car_pair.dim == 3
    assert car_pair.closure_residual <= 1e-9
    single = verify_algebra([unit(2, 1, 2)])
    assert single.dim == 1


def test_verify_algebra_rejects_open_span():
    with pytest.raises(NotAnAlgebraError) as err:
        verify_algebra([unit(2, 1, 2) + unit(2, 2, 1)])
    assert err.value.worst_pair == (0, 0)
    assert err.value.residual > 0.5


def test_verify_algebra_reads_rounding_noise_as_zero():
    # an input within rounding error of the largest input's norm is noise,
    # not structure; a spread of scales well above that keeps its dimension
    # (tests/test_invariance.py spreads a basis over 12 orders)
    eye = np.eye(2, dtype=complex)
    assert verify_algebra([eye, 1e-17 * unit(2, 1, 2)]).dim == 1
    assert verify_algebra([eye, 1e-6 * unit(2, 1, 2)]).dim == 2
    assert verify_algebra([eye, 1e-13 * unit(2, 1, 2)]).dim == 2
    # span(W W*) of a conjugated car pair's TRO is 9-dimensional; 54 of
    # its 81 products are rounding noise, which unit scaling read as 16
    u = random_unitary(4, np.random.default_rng(0))
    space = orthonormalize([u @ b @ u.conj().T for b in ex.car_pair().basis])
    w = generate_tro(space).space.stack
    products = product_stack(w, adjoints(w))
    assert (np.linalg.norm(products, axis=(1, 2)) < 1e-12).sum() == 54
    assert verify_algebra(list(products)).dim == 9


def test_verify_algebra_needs_square_ambient():
    with pytest.raises(ValueError):
        verify_algebra([np.zeros((2, 3), complex)])


def test_commutativity_flags(car_pair):
    assert is_anticommuting(car_pair)
    assert not is_commutative(car_pair)
    diag = ex.diagonal_algebra(3)
    assert is_commutative(diag) and not is_anticommuting(diag)
    s3 = ex.strict_upper(3)
    # e12 e23 = e13 while e23 e12 = 0, and the pair e12, e23 does not anticommute
    assert not is_commutative(s3) and not is_anticommuting(s3)


def test_three_commutative():
    assert is_three_commutative(ex.strict_upper(3))
    assert is_three_commutative(ex.car_pair())
    assert not is_three_commutative(ex.upper_triangular(2))
    assert not is_three_commutative(ex.strict_upper(4))


def test_three_window_lemma(rng):
    # triple invariance extends to longer products: check lengths 4 and 5
    for A in (ex.car_pair(), ex.strict_upper(3), ex.anticommuting_family(2)):
        assert is_three_commutative(A)
        basis = A.basis
        for length in (4, 5):
            idx = rng.integers(0, A.dim, size=length)
            mats = [basis[i] for i in idx]
            ref = mats[0]
            for m in mats[1:]:
                ref = ref @ m
            for _ in range(6):
                perm = rng.permutation(length)
                other = mats[perm[0]]
                for k in perm[1:]:
                    other = other @ mats[k]
                assert hs_norm(other - ref) <= 1e-10


def test_commutator_subspace(car_pair):
    comm = commutator_subspace(car_pair)
    assert comm.dim == 1 and contains(comm, unit(4, 1, 4))
    assert commutator_subspace(ex.diagonal_algebra(3)).dim == 0
    s3 = commutator_subspace(ex.strict_upper(3))
    assert s3.dim == 1 and contains(s3, unit(3, 1, 3))


def test_annihilators(car_pair):
    left, right = annihilators(car_pair)
    assert left.dim == 1 and right.dim == 1
    assert contains(left, unit(4, 1, 4)) and contains(right, unit(4, 1, 4))
    dl, dr = annihilators(ex.diagonal_algebra(2))
    assert dl.dim == 0 and dr.dim == 0
    nil = verify_algebra([unit(2, 1, 2)])
    nl, nr = annihilators(nil)
    assert nl.dim == 1 and nr.dim == 1


def test_faithfulness_and_idempotent(car_pair):
    assert not is_left_faithful(car_pair)
    assert not is_right_faithful(car_pair)
    assert not is_idempotent_algebra(car_pair)
    assert not is_c_faithful(car_pair)
    diag = ex.diagonal_algebra(2)
    assert is_left_faithful(diag) and is_right_faithful(diag)
    assert is_idempotent_algebra(diag) and is_c_faithful(diag)
    two_nil = verify_algebra([unit(3, 1, 2), unit(3, 1, 3)])
    assert not is_idempotent_algebra(two_nil)


def test_radical_examples():
    assert radical(ex.strict_upper(3)).dim == 3
    assert radical(ex.diagonal_algebra(3)).dim == 0
    r = radical(ex.upper_triangular(2))
    assert r.dim == 1 and contains(r, unit(2, 1, 2))


def test_radical_matches_composition_series_oracle():
    cases = [
        ex.upper_triangular(2),
        ex.strict_upper(3),
        ex.diagonal_algebra(3),
        ex.car_pair(),
        ex.random_triangular_algebra(4, 4, 5),
        verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)]),
    ]
    for A in cases:
        got = radical(A)
        coeffs = radical_by_composition_series(list(A.basis), seed=3)
        want = orthonormalize(
            [sum(c * b for c, b in zip(row, A.basis)) for row in coeffs],
            shape=A.space.shape,
        )
        assert got.dim == want.dim
        for b in want.basis:
            assert contains(got, b)


def test_radical_is_nilpotent_ideal_with_semisimple_quotient(rng):
    for seed in range(4):
        A = ex.random_triangular_algebra(4, 4, 100 + seed)
        r = radical(A)
        for x in r.basis:
            # every element is nilpotent with small power
            p = x.copy()
            for _ in range(A.dim + 1):
                p = p @ x
            assert hs_norm(p) <= 1e-9
            for b in A.basis:
                assert contains(r, b @ x) and contains(r, x @ b)
        if r.dim < A.dim:
            _, table = quotient_structure(A, r)
            assert len(abstract_radical_coeffs(table)) == 0


def test_is_nilpotent():
    assert is_nilpotent(verify_algebra([unit(3, 1, 2), unit(3, 2, 3), unit(3, 1, 3)]))
    assert not is_nilpotent(verify_algebra([unit(2, 1, 1)]))
    # the zero subalgebra, given by no coefficient rows
    assert is_nilpotent(ex.upper_triangular(2), np.zeros((0, 3)))


def _conjugate(A, rng):
    q = random_unitary(A.ambient, rng)
    return verify_algebra([q @ b @ q.conj().T for b in A.basis])


@pytest.mark.parametrize("name", [name for name, _ in ex.corpus()])
def test_is_nilpotent_matches_power_oracle(name):
    A = dict(ex.corpus())[name]
    expected = is_nilpotent_by_powers(A.basis)
    assert is_nilpotent(A) == expected
    conj = _conjugate(A, np.random.default_rng(sum(map(ord, name))))
    assert is_nilpotent(conj) == expected


def test_wedderburn_split_pair():
    A = verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)])
    split = wedderburn_split(A)
    assert not split.radical_only
    assert split.unital_part.dim == 1 and split.nilpotent_part.dim == 1
    assert contains(split.unital_part.space, np.diag([1.0, 1.0, 0, 0]).astype(complex))
    assert contains(split.nilpotent_part.space, unit(4, 3, 4))
    f = split.idempotent
    assert hs_norm(f @ f - f) <= 1e-9
    for c in split.unital_part.basis:
        assert hs_norm(f @ c - c) <= 1e-9 and hs_norm(c @ f - c) <= 1e-9
        for k in split.nilpotent_part.basis:
            assert hs_norm(c @ k) <= 1e-9 and hs_norm(k @ c) <= 1e-9


def test_wedderburn_nilpotent_input():
    assert wedderburn_split(ex.strict_upper(3)).radical_only
    assert wedderburn_split(ex.car_pair()).radical_only


def test_wedderburn_rejects_non_three_commutative():
    A = verify_algebra([unit(2, 1, 1), unit(2, 1, 2)])
    # e11 e11 e12 = e12 but e12 e11 e11 = 0
    with pytest.raises(NotThreeCommutativeError):
        wedderburn_split(A)


def test_wedderburn_random_conjugates(rng):
    base = verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)])
    for _ in range(5):
        q = random_unitary(4, rng)
        A = verify_algebra([q @ b @ q.conj().T for b in base.basis])
        split = wedderburn_split(A)
        assert not split.radical_only
        assert split.unital_part.dim == 1 and split.nilpotent_part.dim == 1
        direct = orthonormalize(
            list(split.unital_part.basis) + list(split.nilpotent_part.basis),
            shape=(4, 4),
        )
        assert direct.dim == A.dim


def test_quotient_in_a_complex_basis():
    # split-pair given by complex mixtures of its basis: the representatives
    # must be orthogonal to the radical, and the split must go through (the
    # conjugated projector onto the ideal's coefficients broke both)
    base = verify_algebra([np.diag([1.0, 1.0, 0, 0]).astype(complex), unit(4, 3, 4)])
    g = np.random.default_rng(1).standard_normal((2, 2, 2)) @ np.array([1.0, 1j])
    A = verify_algebra(list(np.tensordot(g, base.space.stack, 1)))
    r = radical(A)
    reps, table = quotient_structure(A, r)
    assert max(abs(np.vdot(x, q)) for x in r.basis for q in reps) <= 1e-12
    assert np.isclose(abs(table[0, 0, 0]), 2**-0.5)  # q q = phase q / sqrt(2) for q = phase e / |e|
    split = wedderburn_split(A)
    assert contains(split.unital_part.space, np.diag([1.0, 1.0, 0, 0]).astype(complex))
    assert contains(split.nilpotent_part.space, unit(4, 3, 4))


def test_reversible_quotient_commutative_semisimple():
    # for reversible algebras the radical is reversible too and the quotient
    # is commutative with zero radical
    from opalg.reversibility import decide_reversible

    seen = 0
    for name, A in ex.corpus():
        if decide_reversible(A).reversible != "YES":
            continue
        seen += 1
        r = radical(A)
        if r.dim < A.dim:
            _, table = quotient_structure(A, r)
            assert len(abstract_radical_coeffs(table)) == 0, name
            assert np.allclose(table, table.transpose(1, 0, 2), atol=1e-9), name
        if r.dim:
            R = verify_algebra(list(r.basis))
            assert decide_reversible(R).reversible == "YES", name
    assert seen >= 10


def test_commutative_implies_three_commutative():
    # polynomials in one nilpotent matrix form closed commutative algebras
    for seed in range(6):
        r = np.random.default_rng(seed)
        g = np.triu(r.standard_normal((4, 4)) + 1j * r.standard_normal((4, 4)), 1)
        A = verify_algebra([g, g @ g, g @ g @ g])
        assert is_commutative(A)
        assert is_three_commutative(A)


def _library_predicates(A):
    left, right = annihilators(A)
    return {
        "commutative": is_commutative(A),
        "anticommuting": is_anticommuting(A),
        "three_commutative": is_three_commutative(A),
        "idempotent": is_idempotent_algebra(A),
        "annihilator_dims": (left.dim, right.dim),
        "commutator_dim": commutator_subspace(A).dim,
        "c_faithful": is_c_faithful(A),
        "radical_dim": radical(A).dim,
    }


def _oracle_algebras():
    # span{e11, e12} is annihilated by e12 from one side only
    return ex.corpus() + [("row-corner", verify_algebra([unit(2, 1, 1), unit(2, 1, 2)]))]


@pytest.mark.parametrize("name", [name for name, _ in _oracle_algebras()])
def test_structure_tensor_predicates_match_product_oracle(name):
    A = dict(_oracle_algebras())[name]
    expected = predicates_by_products(A.basis)
    assert _library_predicates(A) == expected
    # the same algebra given by a random invertible recombination of its
    # basis, each input matrix rescaled
    rng = np.random.default_rng(sum(map(ord, name)))
    g = rng.standard_normal((A.dim, A.dim)) + 1j * rng.standard_normal((A.dim, A.dim))
    scales = 10.0 ** rng.uniform(-1.0, 1.0, A.dim)
    mats = np.einsum("a,ab,bij->aij", scales, g, A.space.stack)
    B = verify_algebra(list(mats))
    assert B.dim == A.dim
    assert _library_predicates(B) == expected


def test_structure_tensor_reproduces_products():
    for _, A in ex.corpus():
        for i, bi in enumerate(A.basis):
            for j, bj in enumerate(A.basis):
                expanded = sum(c * b for c, b in zip(A.structure[i, j], A.basis))
                err = hs_norm(bi @ bj - expanded) / max(1.0, hs_norm(bi @ bj))
                assert err <= A.closure_residual + 1e-15


@pytest.mark.parametrize(
    "name", ["strict-upper-2", "single-nilpotent", "random-triangular-4-12", "random-triangular-4-13"]
)
def test_idempotent_invariant_under_conjugation(name):
    # A^2 = 0 for each of these; the products are rounding noise, which a
    # rank decision must not count, however the algebra is presented
    A = dict(ex.corpus())[name]
    expected = predicates_by_products(A.basis)["idempotent"]
    assert not expected
    assert is_idempotent_algebra(A) == expected
    rng = np.random.default_rng(5)
    for _ in range(10):
        assert is_idempotent_algebra(_conjugate(A, rng)) == expected


@pytest.mark.parametrize("name", [name for name, _ in _oracle_algebras()])
def test_predicates_invariant_under_rescaling(name):
    # spans of input matrices take a purely relative rank cutoff, so a tiny or
    # a huge presentation of the same algebra gives the same answers
    A = dict(_oracle_algebras())[name]
    expected = _library_predicates(A)
    for scale in (1e-12, 1e6):
        assert _library_predicates(verify_algebra(list(scale * A.space.stack))) == expected
