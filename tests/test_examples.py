import itertools

import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import (
    NotAnAlgebraError,
    is_anticommuting,
    is_commutative,
    is_three_commutative,
)
from opalg.linalg import contains, hs_norm, op_norm

from . import oracles

unit = ex.matrix_unit


def test_car_pair_product_table(rng):
    A = ex.car_pair()
    u = unit(4, 1, 3) + unit(4, 2, 4)
    v = unit(4, 1, 2) - unit(4, 3, 4)
    uv = u @ v
    vu = v @ u
    assert np.allclose(uv, -vu)
    assert np.allclose(vu, unit(4, 1, 4))
    assert hs_norm(u @ u) == 0 and hs_norm(v @ v) == 0
    for _ in range(5):
        a, b, c, a2, b2, c2 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = a * u + b * v + c * uv
        y = a2 * u + b2 * v + c2 * uv
        assert hs_norm(x @ y - (a * b2 - b * a2) * uv) <= 1e-9
    assert contains(A.space, uv) and contains(A.space, vu)


def test_car_pair_cross_relations():
    u = unit(4, 1, 3) + unit(4, 2, 4)
    v = unit(4, 1, 2) - unit(4, 3, 4)
    assert hs_norm(u.conj().T @ v + v @ u.conj().T) == 0
    assert np.allclose(u @ u.conj().T + u.conj().T @ u, np.eye(4))
    assert np.allclose(v @ v.conj().T + v.conj().T @ v, np.eye(4))


def test_car_pair_symmetry_unitary():
    theta = ex.car_pair_symmetry_unitary()
    assert np.allclose(theta.conj().T @ theta, np.eye(4))
    for b in ex.car_pair().basis:
        assert np.allclose(theta.conj().T @ b @ theta, -b.T)


def test_anticommuting_family_relations():
    for n in (1, 2, 3):
        A = ex.anticommuting_family(n)
        size = 2 * n + 2
        assert A.dim == 2 * n + 1
        assert A.space.shape == (size, size)
        assert is_anticommuting(A)
        assert contains(A.space, unit(size, 1, size))
        # all pairwise products lie on the single line through e_{1,size}
        w = unit(size, 1, size)
        for x in A.basis:
            for y in A.basis:
                p = x @ y
                coeff = np.trace(w.conj().T @ p)
                assert hs_norm(p - coeff * w) <= 1e-9


def test_anticommuting_family_distance_law():
    n = 3
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
    for i in range(2 * n):
        for j in range(2 * n):
            p = raw[i] @ raw[j]
            if abs(i - j) > 1:
                assert hs_norm(p) == 0
    # adjacent pairs anticommute into the corner line
    for i in range(n):
        a, b = raw[2 * i], raw[2 * i + 1]
        assert np.allclose(a @ b, -(b @ a))
        assert hs_norm(a @ b) > 0.5


def test_anticommuting_family_matches_car_pair_profile():
    small = ex.anticommuting_family(1)
    pair = ex.car_pair()
    assert small.dim == pair.dim == 3
    for A in (small, pair):
        assert is_anticommuting(A) and not is_commutative(A) and is_three_commutative(A)


def test_shift_family():
    for n in (1, 2, 3, 4):
        A = ex.shift_family(n)
        size = n + 2
        w = unit(size, 1, size)
        assert A.dim == n + 1
        for x in A.basis:
            for y in A.basis:
                p = x @ y
                coeff = np.trace(w.conj().T @ p)
                assert hs_norm(p - coeff * w) <= 1e-9
    assert not is_anticommuting(ex.shift_family(3))
    assert not is_anticommuting(ex.shift_family(4))
    # n = 1 wraps onto itself: the single generator squares onto the corner
    A1 = ex.shift_family(1)
    gen = unit(3, 1, 2) + unit(3, 2, 3)
    assert contains(A1.space, gen)
    assert np.allclose(gen @ gen, unit(3, 1, 3))


def test_isometry_algebra_products():
    for s in (np.eye(1, dtype=complex), 1j * np.eye(1, dtype=complex),
              np.array([[0, 1], [-1, 0]], complex)):
        m = s.shape[0]
        A = ex.isometry_algebra(s)
        eye = np.eye(m, dtype=complex)
        u = np.kron(unit(4, 1, 2), eye) + np.kron(unit(4, 3, 4), eye)
        v = np.kron(unit(4, 1, 3), eye) + np.kron(unit(4, 2, 4), s)
        assert np.allclose(u @ v, np.kron(unit(4, 1, 4), s))
        assert np.allclose(v @ u, np.kron(unit(4, 1, 4), eye))
        assert hs_norm(u @ u) == 0 and hs_norm(v @ v) == 0
        # 3-nilpotent: any triple product vanishes
        for x in A.basis:
            for y in A.basis:
                for z in A.basis:
                    assert hs_norm(x @ y @ z) <= 1e-12


def test_isometry_algebra_norm_formula():
    s = 1j * np.eye(1, dtype=complex)
    uv = np.kron(unit(4, 1, 4), s)
    vu = np.kron(unit(4, 1, 4), np.eye(1, dtype=complex))
    for alpha, beta in ((1.0, 0.0), (3.0, 4.0), (1.0, 1.0), (0.3, -2.5)):
        assert op_norm(alpha * uv + beta * vu) == pytest.approx(float(np.hypot(alpha, beta)))


def test_isometry_algebra_rejects_non_isometry():
    with pytest.raises(ValueError):
        ex.isometry_algebra(2.0 * np.eye(1, dtype=complex))
    with pytest.raises(ValueError):
        ex.isometry_algebra(np.array([[1.0, 1.0], [0.0, 1.0]], complex))


def test_car_generator_relations():
    for n in (1, 2, 3):
        gens = ex.car_generator_matrices(n)
        dim = 2**n
        for i, ci in enumerate(gens):
            assert hs_norm(ci @ ci) <= 1e-12
            for j, cj in enumerate(gens):
                assert hs_norm(ci @ cj + cj @ ci) <= 1e-12
                target = (1.0 if i == j else 0.0) * np.eye(dim)
                assert hs_norm(ci @ cj.conj().T + cj.conj().T @ ci - target) <= 1e-12


def test_car_generated_algebra_dimension():
    for n in (1, 2, 3):
        _, A = ex.car_generators(n)
        assert A.dim == 2**n - 1
    with pytest.raises(ValueError):
        ex.car_generators(6)


def test_strict_upper():
    A = ex.strict_upper(3)
    assert A.dim == 3
    assert is_three_commutative(A) and not is_commutative(A)
    assert ex.strict_upper(4).dim == 6
    with pytest.raises(ValueError):
        ex.strict_upper(1)


def test_random_triangular_deterministic():
    a = ex.random_triangular_algebra(4, 4, 123)
    b = ex.random_triangular_algebra(4, 4, 123)
    assert a.dim == b.dim
    for x, y in zip(a.basis, b.basis):
        assert np.allclose(x, y)
    assert a.dim <= 4
    c = ex.random_triangular_algebra(4, 4, 124)
    assert c.dim <= 4


@pytest.mark.parametrize("n, dim, seeds", [(3, 3, range(40)), (4, 4, range(40)), (4, 2, range(20))])
def test_random_triangular_matches_the_single_seed_oracle(n, dim, seeds):
    # the same basis, bit for bit, as a closure of each seed on its own
    # (dim 2 in M_4 draws again often)
    for seed in seeds:
        got, want = ex.random_triangular_algebra(n, dim, seed), oracles.random_triangular_algebra(n, dim, seed)
        assert np.array_equal(got.space.stack, want.space.stack), seed


@pytest.mark.parametrize("n, dim", [(3, 3), (4, 2), (4, 4), (4, 6), (5, 3), (5, 6)])
def test_draws_read_the_generator_as_two_calls_do(tol, n, dim):
    # one call for a matrix's real and imaginary parts gives the draws of two
    # calls bit for bit, the redraws after the first included
    upper = np.triu(np.ones((n, n), bool), 1)
    for seed in range(300):
        got = list(itertools.islice(ex._draws(seed, upper, dim, tol), 5))
        want = list(itertools.islice(oracles.draws_two_calls(seed, upper, dim, tol), 5))
        assert len(got) == 5 and [len(m) for m in got] == [len(m) for m in want]
        assert [a.tobytes() for m in got for a in m] == [b.tobytes() for m in want for b in m]


def test_random_triangular_spans_raise_on_an_uncertified_member(monkeypatch):
    # the residual of a closure's confirming round certifies every span;
    # one above eq_tol raises even when the others pass
    close = ex.close_span

    def forced(*args, **kwargs):
        basis, dims, residual = close(*args, **kwargs)
        residual[1] = 2e-9
        return basis, dims, residual

    assert len(ex.random_triangular_spans(3, 3, range(4))) == 4
    monkeypatch.setattr(ex, "close_span", forced)
    with pytest.raises(NotAnAlgebraError) as err:
        ex.random_triangular_spans(3, 3, range(4))
    assert err.value.residual == 2e-9


def test_corpus_size_and_validity():
    corpus = ex.corpus()
    assert len(corpus) >= 20
    names = [n for n, _ in corpus]
    assert len(set(names)) == len(names)
    for _, A in corpus:
        assert A.closure_residual <= 1e-9
