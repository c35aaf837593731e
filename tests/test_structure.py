import warnings

import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import verify_algebra, wedderburn_split
from opalg.linalg import hs_norm, random_unitary
from opalg.structure import (
    common_eigenvector,
    nilpotent_part_strict,
    triangularize,
)

unit = ex.matrix_unit


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
    A = verify_algebra([unit(2, i, j) for i in (1, 2) for j in (1, 2)])
    assert common_eigenvector(A) is None


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
    A = verify_algebra([unit(2, i, j) for i in (1, 2) for j in (1, 2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert triangularize(A) is None


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
