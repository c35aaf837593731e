import re
import tracemalloc
from collections import Counter

import numpy as np
import numpy.linalg._linalg as numpy_linalg_impl
import pytest

from opalg import examples as ex
from opalg import cb
from opalg.cb import (
    FEASIBLE,
    INFEASIBLE,
    AffineMatrixSet,
    _fit_conjugation_pair,
    _pinned_adjoint,
    _pinned_values,
    _polish,
    _top_singular,
    _violation_search,
    inverse_map,
    is_complete_isometry,
    is_completely_contractive,
    is_symmetric_space,
    min_opnorm_affine,
)
from opalg.linalg import (
    DEFAULT_TOL,
    LinearMapOnSubspace,
    ToleranceConfig,
    hs_norm,
    op_norm,
    orthonormalize,
    random_unitary,
)

from .oracles import (
    amplified_norm_ratio,
    amplify,
    choi,
    choi_block_witness_defects,
    choi_min_eigenvalue_dense,
    conjugation_choi_by_units,
    conjugation_fit_both_loops,
    dykstra_dense,
    fit_and_status_against_both_loops,
    intertwiner_rows_by_units,
    min_opnorm_grid,
    pinned_adjoint_by_einsum,
    pinned_values_by_einsum,
    polish_by_blocks,
    polish_every_step,
    violation_search_all_levels,
)

unit = ex.matrix_unit


def full_matrix_space(n):
    return orthonormalize([unit(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1)])


def transpose_map(space):
    return LinearMapOnSubspace(space, tuple(b.T for b in space.basis), space.shape)


def test_choi_identity():
    full = full_matrix_space(2)
    phi = LinearMapOnSubspace(full, tuple(full.basis), (2, 2))
    c = choi(phi)
    psi = np.array([1, 0, 0, 1.0])
    assert np.allclose(c, np.outer(psi, psi))
    assert np.linalg.eigvalsh(c).min() >= -1e-12


def test_choi_transpose_spectrum():
    full = full_matrix_space(2)
    c = choi(transpose_map(full))
    assert np.allclose(sorted(np.linalg.eigvalsh(c)), [-1.0, 1.0, 1.0, 1.0])


def test_choi_zero_map():
    full = full_matrix_space(2)
    phi = LinearMapOnSubspace(full, tuple(np.zeros((2, 2), complex) for _ in range(4)), (2, 2))
    assert np.allclose(choi(phi), 0.0)


def test_choi_requires_full_domain(car_pair):
    with pytest.raises(ValueError):
        choi(LinearMapOnSubspace(car_pair.space, tuple(car_pair.basis), (4, 4)))


def test_identity_maps_feasible(car_pair):
    for space in (car_pair.space, full_matrix_space(2)):
        phi = LinearMapOnSubspace(space, tuple(space.basis), space.shape)
        out = is_completely_contractive(phi)
        assert out.status == FEASIBLE
        assert out.witness is not None and out.residual <= 1e-7


def test_transpose_full_m2_infeasible():
    out = is_completely_contractive(transpose_map(full_matrix_space(2)))
    assert out.status == INFEASIBLE
    # the witness is an amplified element whose image doubles the norm
    assert out.residual >= 1.0 - 1e-6


def test_transpose_witness_ratio():
    full = full_matrix_space(2)
    phi = transpose_map(full)
    out = is_completely_contractive(phi)
    x = out.witness
    level = x.shape[0] // 2
    image = amplify(phi, level, x)
    ratio = op_norm(image) / op_norm(x)
    assert ratio >= 2.0 - 1e-6


def test_transpose_on_car_pair_feasible_both_ways(car_pair):
    out = is_complete_isometry(transpose_map(car_pair.space))
    assert out.status == FEASIBLE


def test_conjugation_with_sign_feasible(car_pair):
    # x -> -(theta^* x theta) equals the transpose on the algebra
    theta = ex.car_pair_symmetry_unitary()
    images = tuple(-(theta.conj().T @ b @ theta) for b in car_pair.basis)
    phi = LinearMapOnSubspace(car_pair.space, images, (4, 4))
    out = is_complete_isometry(phi)
    assert out.status == FEASIBLE
    for b, im in zip(car_pair.basis, images):
        assert np.allclose(im, b.T)


def test_complete_isometry_rejects_noninjective(car_pair):
    images = (np.zeros((4, 4), complex),) * car_pair.dim
    phi = LinearMapOnSubspace(car_pair.space, images, (4, 4))
    with pytest.raises(ValueError):
        is_complete_isometry(phi)


def test_inverse_map_roundtrip(rng, car_pair):
    q = random_unitary(4, rng)
    images = tuple(q @ b @ q.conj().T for b in car_pair.basis)
    phi = LinearMapOnSubspace(car_pair.space, images, (4, 4))
    inv = inverse_map(phi)
    for b in car_pair.basis:
        assert hs_norm(inv.apply(phi.apply(b)) - b) <= 1e-9


def test_unitary_conjugation_isometry(rng, car_pair):
    q = random_unitary(4, rng)
    images = tuple(q @ b @ q.conj().T for b in car_pair.basis)
    phi = LinearMapOnSubspace(car_pair.space, images, (4, 4))
    out = is_complete_isometry(phi)
    assert out.status == FEASIBLE


def test_monotone_under_restriction(rng):
    # a feasible map stays feasible on a random subspace of its domain
    q = random_unitary(3, rng)
    full = full_matrix_space(3)
    phi = LinearMapOnSubspace(full, tuple(q @ b @ q.conj().T for b in full.basis), (3, 3))
    assert is_completely_contractive(phi).status == FEASIBLE
    picks = [full.basis[i] + 0.5 * full.basis[(i + 3) % 9] for i in range(3)]
    sub = orthonormalize(picks)
    sub_phi = LinearMapOnSubspace(sub, tuple(q @ b @ q.conj().T for b in sub.basis), (3, 3))
    assert is_completely_contractive(sub_phi).status == FEASIBLE


def test_feasible_outcome_bounds_amplifications(rng, car_pair):
    phi = transpose_map(car_pair.space)
    out = is_complete_isometry(phi)
    assert out.status == FEASIBLE
    d = car_pair.dim
    for level in (1, 2, 3):
        c = rng.standard_normal((level, level, d)) + 1j * rng.standard_normal((level, level, d))
        x = np.zeros((4 * level, 4 * level), complex)
        for u in range(level):
            for v in range(level):
                x[4 * u : 4 * u + 4, 4 * v : 4 * v + 4] = sum(
                    cc * b for cc, b in zip(c[u, v], car_pair.basis)
                )
        y = amplify(phi, level, x)
        assert op_norm(y) <= (1.0 + 1e-7) * op_norm(x) + 1e-9


def test_choi_psd_iff_completely_positive(rng):
    full = full_matrix_space(2)
    # sums of conjugations are completely positive
    ks = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2)]
    cp_images = tuple(sum(k @ b @ k.conj().T for k in ks) for b in full.basis)
    cp = LinearMapOnSubspace(full, cp_images, (2, 2))
    assert np.linalg.eigvalsh(choi(cp)).min() >= -1e-10
    # transpose composites are not
    tp_images = tuple(sum(k @ b.T @ k.conj().T for k in ks) for b in full.basis)
    tp = LinearMapOnSubspace(full, tp_images, (2, 2))
    assert np.linalg.eigvalsh(choi(tp)).min() < -1e-6


def test_symmetric_space_cases(car_pair):
    assert is_symmetric_space(car_pair.space).status == FEASIBLE
    assert is_symmetric_space(full_matrix_space(2)).status == INFEASIBLE
    sym_mats = orthonormalize([unit(2, 1, 1), unit(2, 1, 2) + unit(2, 2, 1)])
    assert is_symmetric_space(sym_mats).status == FEASIBLE


def test_symmetric_space_needs_square():
    space = orthonormalize([unit(2, 1, 1, 3)])
    with pytest.raises(ValueError):
        is_symmetric_space(space)


@pytest.mark.parametrize("name", ["car-pair", "M2", "strict-upper-3"])
def test_transpose_and_its_inverse_have_equal_ratios(name):
    # for X = [x_uv] at level k, t the full transpose and X^b = [x_vu]:
    # ||T_k(X)|| = ||X^b|| and T^-1_k(t(X)) = X^b, so the ratio of T^-1_k
    # at t(X) is ||X^b|| / ||X||, the ratio of T_k at X
    basis = {"car-pair": ex.car_pair().space, "M2": full_matrix_space(2), "strict-upper-3": ex.strict_upper(3).space}
    stack = basis[name].stack
    n = stack.shape[1]
    rng = np.random.default_rng(0)

    def assemble(blocks):
        level = len(blocks)
        return blocks.transpose(0, 2, 1, 3).reshape(level * n, level * n)

    for level in (1, 2, 3):
        shape = (level, level, len(stack))
        blocks = np.tensordot(rng.standard_normal(shape) + 1j * rng.standard_normal(shape), stack, 1)
        x, x_beta = assemble(blocks), assemble(blocks.transpose(1, 0, 2, 3))
        t_k = assemble(blocks.transpose(0, 1, 3, 2))
        assert abs(np.linalg.norm(t_k, 2) - np.linalg.norm(x_beta, 2)) <= 1e-12 * np.linalg.norm(x_beta, 2)
        blocks_of_tx = x.T.reshape(level, n, level, n).transpose(0, 2, 1, 3)
        assert np.abs(assemble(blocks_of_tx.transpose(0, 1, 3, 2)) - x_beta).max() <= 1e-12


@pytest.mark.parametrize("name", [name for name, _ in ex.corpus()])
def test_symmetry_matches_the_complete_isometry_check(name):
    # checking the transpose alone gives the status of checking it and its inverse
    A = dict(ex.corpus())[name]
    q = random_unitary(A.ambient, np.random.default_rng(sum(map(ord, name))))
    for space in (A.space, orthonormalize([q @ b @ q.conj().T for b in A.basis])):
        assert is_symmetric_space(space).status == is_complete_isometry(transpose_map(space)).status


def assert_bracket(res, aset):
    """Check the bracket from its certificates alone.

    The witness has trace norm one and is real-orthogonal to every
    direction, so Re<witness, P> is a lower bound for every point of the
    set; it must equal res.lower.  The argmin lies in the set and has norm
    res.min_norm.
    """
    y = res.witness
    assert np.linalg.svd(y, compute_uv=False).sum() == pytest.approx(1.0, abs=1e-12)
    for d in aset.directions:
        assert abs(np.vdot(d, y).real) <= 1e-12 * max(1.0, hs_norm(d))
    assert np.vdot(aset.particular, y).real == pytest.approx(res.lower, abs=1e-12 * max(1.0, res.lower))
    assert res.lower <= res.min_norm == op_norm(res.argmin)
    flat = lambda m: np.concatenate([m.real.ravel(), m.imag.ravel()])
    if aset.directions:
        basis = np.stack([flat(d) for d in aset.directions], axis=1)
        delta = flat(res.argmin - aset.particular)
        coeff = np.linalg.lstsq(basis, delta, rcond=None)[0]
        assert np.linalg.norm(basis @ coeff - delta) <= 1e-9
    else:
        assert np.array_equal(res.argmin, aset.particular)


def generic_set(seed=3):
    """A 3 x 3 point and two real-orthonormal directions, all Gaussian."""
    g = np.random.default_rng(seed)
    draw = lambda: g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))
    particular, d1, d2 = draw(), draw(), draw()
    d1 = d1 / hs_norm(d1)
    d2 = d2 - np.vdot(d1, d2).real * d1
    return AffineMatrixSet(particular, (d1, d2 / hs_norm(d2)), 0.0)


def test_min_opnorm_pinned_point(pq):
    # no direction: the point itself, exactly, with its top singular pair as witness
    aset = AffineMatrixSet(pq, (), 0.0)
    res = min_opnorm_affine(aset)
    assert res.status == "OK" and res.certified
    assert res.min_norm == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(res.argmin, pq)
    assert_bracket(res, aset)


def test_min_opnorm_free_direction():
    aset = AffineMatrixSet(np.zeros((2, 2), complex), (unit(2, 1, 2), 1j * unit(2, 1, 2)), 0.0)
    res = min_opnorm_affine(aset)
    assert res.status == "OK" and res.min_norm == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.argmin, 0.0)


def test_min_opnorm_inconsistent():
    aset = AffineMatrixSet(np.zeros((2, 2), complex), (unit(2, 1, 2), 1j * unit(2, 1, 2)), 1.0)
    assert min_opnorm_affine(aset).status == "INCONSISTENT"


def test_min_opnorm_matches_grid_oracle():
    # one-complex-parameter affine family with an interior minimum:
    # the e11 coefficient is one, e12 is free, e21 is zero
    aset = AffineMatrixSet(unit(2, 1, 1), (unit(2, 1, 2), 1j * unit(2, 1, 2)), 0.0)
    res = min_opnorm_affine(aset)
    oracle = min_opnorm_grid(aset.particular, aset.directions)
    assert res.status == "OK" and res.certified
    assert res.lower <= oracle <= res.min_norm + 1e-9
    assert res.min_norm == pytest.approx(oracle, abs=1e-9)
    assert_bracket(res, aset)
    assert abs(res.argmin[0, 0] - 1.0) <= 1e-7 and abs(res.argmin[1, 0]) <= 1e-7


@pytest.mark.parametrize("seed", [3, 11, 12])
def test_min_opnorm_generic_bracket_holds_the_grid_minimum(seed):
    # the grid oracle only samples the set, so it cannot undercut a valid
    # lower bound, and a true minimizer is never beaten by a sample
    aset = generic_set(seed)
    res = min_opnorm_affine(aset)
    oracle = min_opnorm_grid(aset.particular, aset.directions)
    assert res.certified
    assert res.min_norm - res.lower <= DEFAULT_TOL.sdp_tol * res.min_norm
    assert res.lower <= oracle + 1e-12
    assert res.min_norm <= oracle + 1e-9
    assert_bracket(res, aset)


def test_min_opnorm_generic_set_reaches_the_minimum():
    # the minimum is 4.44211795 (the grid oracle finds 4.44265); a minimizer
    # that stalls early stops well above it
    res = min_opnorm_affine(generic_set(3))
    assert res.certified
    assert res.min_norm < 4.4427
    assert res.lower >= 4.4421 - 1e-7


def test_min_opnorm_closed_form():
    # min over t of |diag(2, 0) + t I / sqrt 2| is 1, at t = -1 / sqrt 2
    aset = AffineMatrixSet(np.diag([2.0, 0.0]).astype(complex), (np.eye(2, dtype=complex) / np.sqrt(2),), 0.0)
    res = min_opnorm_affine(aset)
    assert res.certified
    assert res.min_norm == pytest.approx(1.0, abs=1e-12)
    assert res.lower == pytest.approx(1.0, abs=1e-12)
    assert_bracket(res, aset)


@pytest.mark.parametrize(
    "scales", [(1,), (3,), (1, 2, 1j)], ids=["e12", "3e12", "e12-2e12-ie12"]
)
def test_min_opnorm_directions_need_not_be_orthonormal(scales):
    # |[[1, 1 + z], [0, 1]]| is least, 1, at z = -1; a long direction,
    # repeated ones and complex multiples span the same real set
    aset = AffineMatrixSet(np.array([[1, 1], [0, 1]], complex), tuple(s * unit(2, 1, 2) for s in scales), 0.0)
    res = min_opnorm_affine(aset)
    assert res.certified
    assert res.min_norm == pytest.approx(1.0, abs=1e-12)
    assert res.min_norm - res.lower <= DEFAULT_TOL.sdp_tol
    assert_bracket(res, aset)


def test_min_opnorm_rectangular_random_sets(rng):
    for _ in range(5):
        draw = lambda: rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        aset = AffineMatrixSet(draw(), tuple(draw() for _ in range(3)), 0.0)
        res = min_opnorm_affine(aset)
        assert res.certified
        assert_bracket(res, aset)


# ---------------------------------------------------------------------------
# oracle cases for the violation search and the Dykstra exit


def numpy_ratio(phi, x):
    """||phi_L(x)|| / ||x|| from `amplify` and numpy's singular values."""
    level = x.shape[0] // phi.domain.shape[0]
    y = amplify(phi, level, x)
    return np.linalg.svd(y, compute_uv=False)[0] / np.linalg.svd(x, compute_uv=False)[0]


def psd_unit_diagonal(n, rng):
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v /= np.linalg.norm(v, axis=0)
    return v.conj().T @ v


def map_of(space, fn):
    return LinearMapOnSubspace(space, tuple(fn(b) for b in space.basis), space.shape)


def choi_action(witness, x, no):
    """Apply the map whose Choi matrix is witness, block by block."""
    ni = x.shape[0]
    return sum(
        x[i, j] * witness[i * no : (i + 1) * no, j * no : (j + 1) * no]
        for i in range(ni)
        for j in range(ni)
    )


def dykstra(phi, tol=DEFAULT_TOL):
    """Dykstra on phi's Paulsen program, called directly: the Choi block's
    factors settle these maps before the public decision reaches it."""
    status, point, residual, iterations = cb._dykstra_feasibility(
        *cb._paulsen_constraints(phi), phi.domain.shape, phi.codomain_shape, tol, tol.max_iter
    )
    return cb.FeasibilityOutcome(status, point, residual, iterations=iterations)


def assert_paulsen_witness(phi, out, tol=1e-6):
    """A PSD Choi witness that fixes both identity corners and extends phi."""
    n = phi.domain.shape[0]
    w = out.witness
    assert w.shape == (4 * n * n, 4 * n * n)
    assert np.linalg.eigvalsh((w + w.conj().T) / 2).min() >= -1e-9
    corner = np.zeros((2 * n, 2 * n), complex)
    corner[:n, :n] = np.eye(n)
    assert np.abs(choi_action(w, corner, 2 * n) - corner).max() <= tol
    corner = np.eye(2 * n) - corner
    assert np.abs(choi_action(w, corner, 2 * n) - corner).max() <= tol
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x, want = np.zeros((2 * n, 2 * n), complex), np.zeros((2 * n, 2 * n), complex)
            x[:n, n:] = unit(n, i, j)
            want[:n, n:] = phi.apply(unit(n, i, j))
            assert np.abs(choi_action(w, x, 2 * n) - want).max() <= tol


@pytest.mark.parametrize("n", [2, 3])
def test_schur_multiplier_inside_the_ball_feasible_by_dykstra(rng, n):
    # a PSD symbol with unit diagonal is a completely positive Schur
    # multiplier of cb norm one (Paulsen 2002), so 0.98 S o x is contractive.
    # It is CP, so the factors of its Choi block certify it with no Dykstra
    # iteration; Dykstra on the same program certifies it too
    s = psd_unit_diagonal(n, rng)
    phi = map_of(full_matrix_space(n), lambda b: 0.98 * s * b)
    out = is_completely_contractive(phi)
    assert (out.status, out.notes, out.iterations) == (FEASIBLE, f"conjugation certificate of multiplicity {n}", 0)
    assert_paulsen_witness(phi, out)
    assert_conjugation_witness(phi, out.witness)
    out = dykstra(phi)
    assert out.status == FEASIBLE and out.iterations > 0
    assert_paulsen_witness(phi, out)


@pytest.mark.parametrize("n", [2, 3])
def test_schur_multiplier_outside_the_ball_infeasible(rng, n):
    s = psd_unit_diagonal(n, rng)
    phi = map_of(full_matrix_space(n), lambda b: 1.02 * s * b)
    out = is_completely_contractive(phi)
    assert out.status == INFEASIBLE
    ratio = numpy_ratio(phi, out.witness)
    assert 1.0 < ratio <= 1.02 + 1e-9
    assert out.residual == pytest.approx(ratio - 1.0, abs=1e-9)


def test_diagonal_compression_feasible_by_dykstra():
    # CP and unital: the Choi block's factors certify it, and Dykstra on the
    # same program does too
    phi = map_of(full_matrix_space(3), lambda b: np.diag(np.diag(b)))
    out = is_completely_contractive(phi)
    assert (out.status, out.notes, out.iterations) == (FEASIBLE, "conjugation certificate of multiplicity 3", 0)
    assert_paulsen_witness(phi, out)
    assert_conjugation_witness(phi, out.witness)
    out = dykstra(phi)
    assert out.status == FEASIBLE and out.iterations > 0
    assert_paulsen_witness(phi, out)


def test_violation_search_reaches_the_smith_level():
    # transpose / 4.5 on M_5 has cb norm 5 / 4.5, attained only at level 5
    phi = map_of(full_matrix_space(5), lambda b: b.T / 4.5)
    out = is_completely_contractive(phi)
    assert out.status == INFEASIBLE
    assert out.witness.shape == (25, 25)
    assert numpy_ratio(phi, out.witness) == pytest.approx(5 / 4.5, abs=1e-9)


def test_symmetry_residual_is_conjugation_invariant(rng):
    # the transpose's cb norm on car-span-algebra-3 is reached above level 4
    space = dict(ex.corpus())["car-span-algebra-3"].space
    q = random_unitary(space.ambient_rows, rng)
    conj = orthonormalize([q @ b @ q.conj().T for b in space.basis])
    given, conjugated = is_symmetric_space(space), is_symmetric_space(conj)
    assert given.status == conjugated.status == INFEASIBLE
    assert given.residual == pytest.approx(conjugated.residual, abs=1e-9)


def search_cases():
    """The cb-exits maps, the transpose on M_{2,3}, whose transpose pattern
    is padded to level 3, and the transpose on each corpus space and on a
    seeded unitary conjugate of it."""
    rng = np.random.default_rng(0)
    cases = [(f"transpose-M{k}", transpose_map(full_matrix_space(k))) for k in (2, 3, 4)]
    wide = orthonormalize([unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)])
    cases.append(("transpose-M2x3", LinearMapOnSubspace(wide, tuple(b.T for b in wide.basis), (3, 2))))
    for n in (2, 3, 4):
        s = psd_unit_diagonal(n, rng)
        cases.append((f"schur-1.02-M{n}", map_of(full_matrix_space(n), lambda b, s=s: 1.02 * s * b)))
        cases.append((f"schur-0.98-M{n}", map_of(full_matrix_space(n), lambda b, s=s: 0.98 * s * b)))
    for n in (3, 4):
        cases.append((f"diagonal-M{n}", map_of(full_matrix_space(n), lambda b: np.diag(np.diag(b)))))
    cases.append(("transpose-4.5-M5", map_of(full_matrix_space(5), lambda b: b.T / 4.5)))
    for name, A in ex.corpus():
        q = random_unitary(A.ambient, rng)
        cases.append((name, transpose_map(A.space)))
        cases.append((f"{name}~conj", transpose_map(orthonormalize([q @ b @ q.conj().T for b in A.basis]))))
    return cases


SEARCH_CASES = search_cases()


@pytest.mark.parametrize("name,phi", SEARCH_CASES, ids=[name for name, _ in SEARCH_CASES])
def test_violation_search_matches_the_all_levels_climb(name, phi):
    # stopping at the first violating run finds a violation exactly when the
    # best ratio over every run does, and reports a ratio its witness attains
    found = _violation_search(phi, DEFAULT_TOL, 0)
    best, _ = violation_search_all_levels(phi, DEFAULT_TOL, 0)
    assert (found is not None) == (best > 1.0 + DEFAULT_TOL.sdp_tol)
    if found is not None:
        ratio, x = found
        assert 1.0 + DEFAULT_TOL.sdp_tol < ratio <= best + 1e-9
        assert numpy_ratio(phi, x) == pytest.approx(ratio, abs=1e-9)


def wide_transpose(c):
    """x -> c x^T from M_{2,3} to M_{3,2}, of cb norm sqrt(6) c."""
    wide = orthonormalize([unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)])
    return LinearMapOnSubspace(wide, tuple(c * b.T for b in wide.basis), (3, 2))


def row_block_transpose(c):
    """The transpose on {diag(a, b) (+) c [a b]} in M_4: the row block is
    Shilov-deletable and the transpose fixes the kept diagonal, so it is
    completely isometric, but no pair u, v fits it and no violation exists."""
    mats = []
    for k in range(2):
        x = np.zeros((4, 4), complex)
        x[k, k], x[2, 2 + k] = 1.0, c
        mats.append(x)
    return transpose_map(orthonormalize(mats))


DYKSTRA_NAMES = ["schur-0.98-M2", "schur-0.98-M3", "schur-0.98-M4", "diagonal-M3", "diagonal-M4"]
DYKSTRA_CASES = [(name, dict(SEARCH_CASES)[name]) for name in DYKSTRA_NAMES]
DYKSTRA_CASES += [("transpose-0.40-M2x3", wide_transpose(0.40)), ("row-block-0.5", row_block_transpose(0.5))]


# with eq_tol = sdp_tol = 1e-6 every case but the M_{2,3} transpose ends
# through the PSD test of a late iterate (16 to 661 iterations), so the
# Courant-Fischer skip decides every step before it
LOOSE_TOL = ToleranceConfig(eq_tol=1e-6, sdp_tol=1e-6)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE_TOL], ids=["default", "loose"])
@pytest.mark.parametrize("name,phi", DYKSTRA_CASES, ids=[name for name, _ in DYKSTRA_CASES])
def test_blocked_dykstra_matches_the_dense_iteration(name, phi, tol):
    # Dykstra on the two parity blocks takes the steps of the dense
    # iteration, which tests every iterate for PSD: the same status and
    # iteration count, and residual and witness within rounding.  The
    # M_{2,3} transpose has blocks of 12 and 13 rows and exits through the
    # PSD test of its first iterate.  The Choi block's factors certify every
    # case but the row-block span before Dykstra, so Dykstra is called on
    # their programs directly; the row-block span reaches it through the
    # public decision
    if name == "row-block-0.5":
        out = is_completely_contractive(phi, tol)
        assert out.notes == "alternating projections"
    else:
        certified = is_completely_contractive(phi, tol)
        assert certified.notes.startswith("conjugation certificate of multiplicity ")
        out = dykstra(phi, tol)
    gs, targets = cb._paulsen_constraints(phi)
    ni, no = sum(phi.domain.shape), sum(phi.codomain_shape)
    status, point, residual, iterations = dykstra_dense(gs, targets, ni, no, tol, tol.max_iter)
    assert (out.status, out.iterations) == (status, iterations) and status == FEASIBLE
    assert out.residual == pytest.approx(residual, abs=1e-12)
    assert np.abs(out.witness - point).max() <= 1e-12
    assert choi_min_eigenvalue_dense(out.witness) >= -1e-9
    pinned = pinned_values_by_einsum(out.witness.reshape(ni, no, ni, no), gs)
    assert np.linalg.norm(pinned - targets) <= 10.0 * tol.sdp_tol


def test_fast_exits_report_no_dykstra_iterations(car_pair):
    assert is_completely_contractive(transpose_map(full_matrix_space(2))).iterations == 0
    assert is_symmetric_space(car_pair.space).iterations == 0


def record_solvers(monkeypatch):
    """Count numpy's svd, eigh, eigvalsh and lstsq calls, np.linalg.norm(x, 2)
    included, and record the name and matrix size of each."""
    calls, sizes = {"svd": 0, "eigh": 0, "eigvalsh": 0, "lstsq": 0}, []

    def recording(name):
        solver = getattr(np.linalg, name)

        def recorded(a, *args, **kwargs):
            calls[name] += 1
            sizes.append((name, np.shape(a)[-1]))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
        monkeypatch.setattr(numpy_linalg_impl, name, recorded)

    for name in calls:
        recording(name)
    return calls, sizes


def count_solvers(monkeypatch):
    return record_solvers(monkeypatch)[0]


def test_violation_search_batches_its_eigensolves(monkeypatch):
    # one batched Hermitian eigensolve of the images' Gram matrices and one of
    # the amplified elements' per polish step, for a run's starts together.
    # The transpose pattern at level 3, polished first, finds the violation,
    # and its first ascent step leads back to it up to phase and scale, so
    # the run stops there: 1 + 1.  No SVD is taken.  Polishing one start at
    # a time took 1082 SVDs here.
    phi = transpose_map(full_matrix_space(3))
    calls = count_solvers(monkeypatch)
    found = _violation_search(phi, DEFAULT_TOL, 0)
    assert found is not None and found[0] == pytest.approx(3.0)
    assert calls["svd"] == 0
    assert calls["eigh"] + calls["eigvalsh"] == 1 + 1


def test_violation_search_without_a_violation_polishes_every_run(monkeypatch):
    # the diagonal compression of M_3 is completely contractive, so every run
    # is polished, each until its starts are fixed points of the ascent step
    # or its steps run out: 2 * 2 for the transpose pattern, 2 * 7 for
    # level 3, 2 for the unit starts, 2 * 2 at level 1 and 2 * 7 at level 2
    phi = map_of(full_matrix_space(3), lambda b: np.diag(np.diag(b)))
    calls = count_solvers(monkeypatch)
    assert _violation_search(phi, DEFAULT_TOL, 0) is None
    assert calls["svd"] == 0
    assert calls["eigh"] + calls["eigvalsh"] == 2 * 2 + 2 * 7 + 2 + 2 * 2 + 2 * 7


def record_random_draws(monkeypatch):
    """Every array drawn from a generator of np.random.default_rng, in order,
    while the test runs."""
    draws, real = [], np.random.default_rng

    class Recorded:
        def __init__(self, seed=None):
            self.rng = real(seed)

        def standard_normal(self, shape):
            draws.append(self.rng.standard_normal(shape))
            return draws[-1]

    monkeypatch.setattr(cb.np.random, "default_rng", Recorded)
    return draws


def test_pattern_settled_violation_draws_no_random_start(monkeypatch):
    # the transpose pattern settles the M_3 transpose before any random run
    draws = record_random_draws(monkeypatch)
    found = _violation_search(transpose_map(full_matrix_space(3)), DEFAULT_TOL, 0)
    assert found is not None and found[0] == pytest.approx(3.0)
    assert draws == []


def test_random_starts_are_drawn_late_and_equal_an_eager_draw(monkeypatch):
    # the diagonal compression of M_3 reaches every run: the transpose
    # pattern, level 3, the unit starts, level 1 and level 2.  The random
    # starts are drawn at the level-3 run, from level 1 up, and equal an
    # eager draw of the same seed element for element
    rng = np.random.default_rng(0)
    eager = [
        np.stack([rng.standard_normal((k, k, 9)) + 1j * rng.standard_normal((k, k, 9)) for _ in range(12)])
        for k in (1, 2, 3)
    ]
    draws = record_random_draws(monkeypatch)
    runs, polish = [], cb._polish

    def recorded(phi, coeffs, steps):
        runs.append((coeffs, len(draws)))
        return polish(phi, coeffs, steps)

    monkeypatch.setattr(cb, "_polish", recorded)
    phi = map_of(full_matrix_space(3), lambda b: np.diag(np.diag(b)))
    assert _violation_search(phi, DEFAULT_TOL, 0) is None
    assert [drawn for _, drawn in runs] == [0, 72, 72, 72, 72]
    for (coeffs, _), want in zip([runs[3], runs[4], runs[1]], eager):
        assert np.array_equal(coeffs, want)


@pytest.mark.parametrize("kind", ["search", "wide"])
def test_polish_stop_matches_polishing_every_step(monkeypatch, kind):
    # stopping a run once its starts are fixed points of the ascent step, up
    # to phase and scale, keeps the search's outcome and its ratio
    cases = fit_cases(kind)
    stopped = [_violation_search(phi, DEFAULT_TOL, 0) for phi in cases]
    monkeypatch.setattr(cb, "_polish", polish_every_step)
    for phi, got in zip(cases, stopped):
        want = _violation_search(phi, DEFAULT_TOL, 0)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)


def test_dykstra_eigensolves_are_parity_block_sized(monkeypatch):
    # the Schur map on M_4 has a Choi matrix of size 64 and two parity
    # blocks of 32; no Hermitian eigensolve of its decision is larger.  Each
    # of its 36 iterations projects both blocks, and only the first iterate
    # is tested for PSD: the Courant-Fischer bound rules out every later one
    phi = dict(DYKSTRA_CASES)["schur-0.98-M4"]
    sizes = record_solvers(monkeypatch)[1]
    out = dykstra(phi)
    assert out.status == FEASIBLE and out.iterations == 36
    assert [len(rows) for rows in cb._parity_blocks((4, 4), (4, 4))] == [32, 32]
    assert max(size for _, size in sizes) == 32
    assert sizes.count(("eigh", 32)) == 2 * out.iterations
    assert sizes.count(("eigvalsh", 32)) == 2


@pytest.mark.parametrize("c", [0.45, 0.55])
def test_violation_search_pads_the_transpose_pattern_of_a_rectangular_domain(c):
    # x -> c x^T on M_{2,3} has cb norm sqrt(6) c, read at level 3 by the
    # transpose pattern padded with zero blocks
    phi = wide_transpose(c)
    out = is_completely_contractive(phi)
    assert out.status == INFEASIBLE and out.witness.shape == (6, 9)
    assert out.residual == pytest.approx(np.sqrt(6) * c - 1.0, abs=1e-9)
    blocks = out.witness.reshape(3, 2, 3, 3).transpose(0, 2, 1, 3)
    coeffs = np.einsum("kij,uvij->uvk", phi.domain.stack.conj(), blocks)
    ratio, x = amplified_norm_ratio(list(phi.domain.basis), list(phi.image_stack), coeffs)
    assert ratio == pytest.approx(np.sqrt(6) * c, abs=1e-9)
    assert np.allclose(x, out.witness, atol=1e-12)


def test_violation_note_names_the_witness_level():
    # the note reads "amplified norm ratio R at level L", L the witness's level
    for phi in (
        transpose_map(full_matrix_space(2)),
        map_of(full_matrix_space(5), lambda b: b.T / 4.5),
        transpose_map(dict(ex.corpus())["strict-upper-3"].space),
    ):
        out = is_completely_contractive(phi)
        ratio, level = re.fullmatch(r"amplified norm ratio (\S+) at level (\d+)", out.notes).groups()
        assert int(level) == out.witness.shape[0] // phi.domain.shape[0]
        assert float(ratio) == pytest.approx(1.0 + out.residual, rel=1e-5)


def rectangular_conjugation(rng):
    """x -> u x v from M_{2,3} to M_{3,2} with isometric u and v."""
    full = orthonormalize([unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)])
    u = random_unitary(3, rng)[:, :2]
    v = random_unitary(3, rng)[:, :2]
    return LinearMapOnSubspace(full, tuple(u @ b @ v for b in full.basis), (3, 2))


def test_rectangular_conjugation_certified(rng):
    # the pinned identity corners of the two sides have different sizes; the
    # shapes differ, so no unitary pair fits, and the Choi block, of rank
    # one, certifies the map with no Dykstra iteration
    phi = rectangular_conjugation(rng)
    out = is_completely_contractive(phi)
    assert (out.status, out.notes, out.iterations) == (FEASIBLE, "conjugation certificate of multiplicity 1", 0)
    assert_conjugation_witness(phi, out.witness)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_batched_polish_matches_block_loop(rng, level):
    # a generic map from a 5-dimensional subspace of M_{2,3} into M_{3,2}
    space = orthonormalize([rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)) for _ in range(5)])
    images = tuple(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)) for _ in range(5))
    phi = LinearMapOnSubspace(space, images, (3, 2))
    starts = rng.standard_normal((4, level, level, 5)) + 1j * rng.standard_normal((4, level, level, 5))
    ratios, coeffs = _polish(phi, starts, 6)
    for start, ratio, c in zip(starts, ratios, coeffs):
        want_ratio, want_c = polish_by_blocks(list(space.basis), list(images), start, 6)
        assert ratio == pytest.approx(want_ratio, rel=1e-9)
        assert np.allclose(c, want_c, atol=1e-9)


def test_conjugation_fit_rules_out_the_m2_transpose_in_one_eigensolve(monkeypatch):
    # the transpose of M_2 is no map x -> u x v: the intertwiner equations
    # a e_ij = e_ji b force a = b = 0, so the Gram matrix has no kernel and
    # the fit returns after one Hermitian eigensolve of size 4 + 4, with no
    # polar factor (an SVD) and no least squares
    phi = transpose_map(full_matrix_space(2))
    calls, sizes = record_solvers(monkeypatch)
    assert _fit_conjugation_pair(phi, DEFAULT_TOL, 0) is None
    assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0, "lstsq": 0} and sizes == [("eigh", 8)]


def test_conjugation_fit_of_the_m8_transpose_holds_no_quartic_array(monkeypatch):
    # the transpose of M_8 (d = 64) is ruled out by one eigh of size
    # m^2 + n^2 = 128, with no least-squares and no polar factor of a random
    # kernel element.  A d^4 array would take 268 MB
    phi = transpose_map(full_matrix_space(8))
    calls, sizes = record_solvers(monkeypatch)
    tracemalloc.start()
    try:
        pair = _fit_conjugation_pair(phi, DEFAULT_TOL, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair is None
    assert calls == {"svd": 0, "eigh": 1, "eigvalsh": 0, "lstsq": 0} and sizes == [("eigh", 128)]
    assert peak < 4 * 2**20


@pytest.mark.parametrize("shape", [(3, 2, 3), (5, 4, 2), (1, 1, 1)])
def test_intertwiner_gram_matches_the_equations(rng, shape):
    # the Kronecker-form Gram matrix is E* E for the equations applied to
    # unit vectors, and on a conjugation t_k = u s_k v it vanishes at
    # (vec u, vec v*)
    _, m, n = shape
    s, t = _complex(rng, shape), _complex(rng, shape)
    rows = intertwiner_rows_by_units(s, t)
    assert np.allclose(cb._intertwiner_gram(s, t), rows.conj().T @ rows, rtol=0.0, atol=1e-12)
    u, v = random_unitary(m, rng), random_unitary(n, rng)
    x = np.concatenate([u.ravel(), v.conj().T.ravel()])
    assert np.abs(cb._intertwiner_gram(s, u @ s @ v) @ x).max() <= 1e-12


def haar_conjugation_maps(count, seed):
    """Maps x -> u x v with Haar unitaries u, v on random subspaces of
    M_{m,n}, m, n <= 6."""
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(count):
        m, n = (int(k) for k in rng.integers(1, 7, 2))
        d = int(rng.integers(1, m * n + 1))
        space = orthonormalize([rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)) for _ in range(d)])
        u, v = random_unitary(m, rng), random_unitary(n, rng)
        maps.append(LinearMapOnSubspace(space, tuple(u @ b @ v for b in space.basis), (m, n)))
    return maps


def wide_conjugates():
    """A Haar conjugate q x q* of each span of the wide sample, q drawn from
    default_rng(1) in sample order."""
    from .test_tro import WIDE_SAMPLE

    rng = np.random.default_rng(1)
    out = []
    for space in WIDE_SAMPLE:
        q = random_unitary(space.shape[0], rng)
        out.append(orthonormalize([q @ b @ q.conj().T for b in space.basis]))
    return out


def fit_cases(kind):
    if kind == "search":
        return [phi for _, phi in SEARCH_CASES]
    if kind == "wide":
        from .test_tro import WIDE_SAMPLE

        return [transpose_map(space) for space in list(WIDE_SAMPLE) + wide_conjugates()]
    return haar_conjugation_maps(50, 11)


def assert_conjugation_witness(phi, choi_matrix):
    """A FEASIBLE witness, a conjugation certificate's Choi matrix or
    Dykstra's, is PSD by a dense eigensolve and meets phi's pinned values,
    both computed outside cb."""
    gs, targets = cb._paulsen_constraints(phi)
    ni, no = sum(phi.domain.shape), sum(phi.codomain_shape)
    assert choi_min_eigenvalue_dense(choi_matrix) >= -DEFAULT_TOL.eq_tol
    pinned = pinned_values_by_einsum(choi_matrix.reshape(ni, no, ni, no), gs)
    assert np.linalg.norm(pinned - targets) <= DEFAULT_TOL.sdp_tol


# (maps, pairs the two-loop fit finds, pairs the intertwiner fit finds) of
# each case set: the wide sample's transposes, then those of its conjugates
FIT_COUNTS = {"search": (61, 36, 36), "wide": (724, 300, 316), "haar": (50, 49, 50)}


@pytest.mark.parametrize("kind", sorted(FIT_COUNTS))
def test_conjugation_fit_certifies_every_map_the_loops_fit(kind):
    # wherever the fit that runs both loops (alternating polar starts, then
    # least squares) finds a pair, the intertwiner fit finds one too.  The
    # pairs may differ, so each is re-checked by its Choi matrix, built unit
    # by unit
    cases = fit_cases(kind)
    by_loops = fitted = 0
    for phi in cases:
        want = conjugation_fit_both_loops(phi, DEFAULT_TOL, 0)
        got = _fit_conjugation_pair(phi, DEFAULT_TOL, 0)
        assert got is not None or want is None
        by_loops += want is not None
        if got is not None:
            fitted += 1
            assert_conjugation_witness(phi, conjugation_choi_by_units(*got))
    assert (len(cases), by_loops, fitted) == FIT_COUNTS[kind]


# the wide-sample conjugates whose transposes the polar loop missed
LOOP_MISSED_WIDE = (28, 48, 87, 121, 131, 133, 166, 185, 186, 193, 221, 235, 304, 322, 343, 350)


def loop_missed_maps(case):
    kind, _, index = case.partition("-")
    if kind == "wide":
        return [transpose_map(wide_conjugates()[int(index)])]
    if kind == "triangular":
        n, dim, seed = (int(k) for k in index.split("-"))
        return [transpose_map(ex.random_triangular_spans(n, dim, [seed])[0])]
    return haar_conjugation_maps(50, 11)


@pytest.mark.parametrize(
    "case", [f"wide-{i}" for i in LOOP_MISSED_WIDE] + ["triangular-5-6-24", "triangular-6-4-29", "haar"]
)
def test_conjugation_certifies_the_pairs_the_loop_missed(case):
    # conjugations the polar loop missed, which then took 0.9 s to minutes of
    # Dykstra or ended UNDECIDED: the wide-sample conjugates, two
    # dimension-1 spans (a pair exists from the SVDs of x and x^T) and Haar
    # maps x -> u x v.  Each is now a conjugation certificate, no Dykstra
    for phi in loop_missed_maps(case):
        out = is_completely_contractive(phi)
        assert (out.status, out.notes, out.iterations) == (FEASIBLE, "conjugation certificate", 0)
        assert_conjugation_witness(phi, out.witness)


def pair_factors(u, v):
    """The Choi block of x -> u x v as a rank-one factor pair (vec u, vec v)."""
    return u.T[:, :, None], v.conj()[:, :, None]


def test_weyl_floor_bounds_the_certificate_spectrum():
    # on every conjugation certificate of the search cases (the corpus
    # transposes, their conjugates and the cb-exits maps) and the identity on
    # the car pair, the factor bound never exceeds the dense least eigenvalue
    # of the witness.  A unitary pair's witness is the Choi matrix of its
    # completion, built unit by unit; the Choi block's factors, which settle
    # the CP maps (the Schur multipliers and diagonal compressions), give a
    # witness with that map's Choi block
    car = ex.car_pair().space
    maps = [phi for _, phi in SEARCH_CASES] + [map_of(car, lambda b: b), transpose_map(car)]
    certified = Counter()
    for phi in maps:
        out = is_completely_contractive(phi)
        if out.notes == "conjugation certificate":
            u, v = _fit_conjugation_pair(phi, DEFAULT_TOL, 0)
            floor, witness = cb._kraus_choi(*pair_factors(u, v), DEFAULT_TOL.eq_tol)
            assert np.abs(witness - conjugation_choi_by_units(u, v)).max() <= 1e-12
        elif out.notes.startswith("conjugation certificate of multiplicity"):
            floor, witness = cb._kraus_choi(*cb._choi_block_factors(phi, DEFAULT_TOL), DEFAULT_TOL.eq_tol)
            assert choi_block_witness_defects(phi, witness)[0] <= 1e-9
        else:
            continue
        certified[out.notes] += 1
        dense = choi_min_eigenvalue_dense(witness)
        assert floor <= dense + 1e-12
        assert min(floor, dense) >= -DEFAULT_TOL.eq_tol
        assert np.abs(out.witness - witness).max() <= 1e-12
    assert certified == {
        "conjugation certificate": 38,
        "conjugation certificate of multiplicity 2": 1,
        "conjugation certificate of multiplicity 3": 2,
        "conjugation certificate of multiplicity 4": 2,
    }


def test_weyl_floor_and_dense_test_reject_a_long_factor(rng):
    # u of norm 1 + 1e-6 pads the Choi matrix with -2e-6 / m on an
    # m kr-dimensional block that the rank-one term cannot fill; the floor
    # (1 - ||u|| ||v||) / m rules it out before any witness is built
    u = (1.0 + 1e-6) * random_unitary(2, rng)
    v = random_unitary(2, rng)
    assert op_norm(u) == pytest.approx(1.0 + 1e-6, abs=1e-12)
    floor, witness = cb._kraus_choi(*pair_factors(u, v), DEFAULT_TOL.eq_tol)
    assert floor < -DEFAULT_TOL.eq_tol and witness is None
    assert choi_min_eigenvalue_dense(conjugation_choi_by_units(u, v)) < -DEFAULT_TOL.eq_tol


def random_cp_map(rng, norm):
    """x -> sum_l a_l x a_l* from M_m to M_k, m, k in {2, 3}, with one to
    three Kraus operators, scaled so that ||phi(1)|| = norm."""
    m, k, r = (int(x) for x in rng.integers((2, 2, 1), (4, 4, 4)))
    kraus = _complex(rng, (r, k, m))
    kraus *= np.sqrt(norm / op_norm(sum(a @ a.conj().T for a in kraus)))
    full = full_matrix_space(m)
    return LinearMapOnSubspace(full, tuple(sum(a @ b @ a.conj().T for a in kraus) for b in full.basis), (k, k))


def random_two_sided_map(rng, norm):
    """x -> a x b from M_{2,3} to M_{3,2} with ||a|| ||b|| = norm."""
    full = orthonormalize([unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)])
    a, b = _complex(rng, (3, 2)), _complex(rng, (3, 2))
    a *= norm / (op_norm(a) * op_norm(b))
    return LinearMapOnSubspace(full, tuple(a @ x @ b for x in full.basis), (3, 2))


@pytest.mark.parametrize("seed", range(6))
def test_choi_block_certifies_cp_and_two_sided_maps(seed):
    # Haagerup's bound is the cb norm of a CP map (||phi(1)||) and of
    # x -> a x b (||a|| ||b||).  At norm 1 - 1e-3 the Choi block's factors
    # certify each with no Dykstra iteration, by a witness whose off-diagonal
    # block is the Choi block of phi P_S, built unit by unit, that is PSD by
    # a dense eigensolve and meets the pinned values
    rng = np.random.default_rng(seed)
    for phi in (random_cp_map(rng, 1.0 - 1e-3), random_two_sided_map(rng, 1.0 - 1e-3)):
        out = is_completely_contractive(phi)
        assert (out.status, out.iterations) == (FEASIBLE, 0)
        assert out.notes.startswith("conjugation certificate of multiplicity ")
        block, least, pinned = choi_block_witness_defects(phi, out.witness)
        assert block <= 1e-9 and least >= -DEFAULT_TOL.eq_tol and pinned <= DEFAULT_TOL.sdp_tol


def refused_by_the_choi_block(phi):
    floor, witness = cb._kraus_choi(*cb._choi_block_factors(phi, DEFAULT_TOL), DEFAULT_TOL.eq_tol)
    return witness is None and floor < -DEFAULT_TOL.eq_tol


@pytest.mark.parametrize("seed", range(6))
def test_choi_block_refuses_maps_just_outside_the_ball(seed):
    # the same maps at norm 1 + 1e-6 have cb norm 1 + 1e-6: Weyl's floor
    # rules them out, so no witness is built
    rng = np.random.default_rng(seed)
    for phi in (random_cp_map(rng, 1.0 + 1e-6), random_two_sided_map(rng, 1.0 + 1e-6)):
        assert refused_by_the_choi_block(phi)


@pytest.mark.parametrize(
    "name", ["schur-1.02-M2", "schur-1.02-M3", "schur-1.02-M4", "transpose-4.5-M5", "wide-0.45", "wide-0.55"]
)
def test_choi_block_refuses_the_infeasible_search_cases(name):
    # maps of cb norm above one, x -> c x^T on M_{2,3} (sqrt(6) c) included:
    # the Choi block's factors never certify them, and the violation search
    # settles them
    phi = wide_transpose(float(name[5:])) if name.startswith("wide") else dict(SEARCH_CASES)[name]
    assert refused_by_the_choi_block(phi)
    assert is_completely_contractive(phi).status == INFEASIBLE


@pytest.mark.parametrize("name,phi", SEARCH_CASES, ids=[name for name, _ in SEARCH_CASES])
def test_conjugation_fit_matches_the_fit_with_both_loops(monkeypatch, name, phi):
    # running only the fit the Gram matrices admit finds a pair exactly when
    # running both loops does, and the decision ends the same way
    got, want = fit_and_status_against_both_loops(monkeypatch, phi)
    assert got == want, name


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _repeated_top(rng):
    # two equal top singular values: the vectors may be any unit pair of the
    # top singular subspaces, so they are checked through u* Y v = sigma only
    spectrum = np.diag([3.0, 3.0, 1.0, 0.5])
    return np.stack([random_unitary(5, rng)[:, :4] @ spectrum @ random_unitary(4, rng) for _ in range(3)])


TOP_SINGULAR_BATCHES = {
    "wide": lambda rng: _complex(rng, (4, 3, 7)),
    "tall": lambda rng: _complex(rng, (4, 7, 3)),
    "square": lambda rng: _complex(rng, (4, 5, 5)),
    "rank-deficient-wide": lambda rng: _complex(rng, (4, 4, 2)) @ _complex(rng, (4, 2, 6)),
    "rank-deficient-tall": lambda rng: _complex(rng, (4, 6, 2)) @ _complex(rng, (4, 2, 4)),
    "repeated-top": _repeated_top,
}


@pytest.mark.parametrize("kind", sorted(TOP_SINGULAR_BATCHES))
def test_top_singular_matches_svd(rng, kind):
    mats = TOP_SINGULAR_BATCHES[kind](rng)
    s, u, vh = _top_singular(mats)
    assert np.allclose(s, np.linalg.svd(mats, compute_uv=False)[:, 0], rtol=1e-12, atol=0.0)
    assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
    assert np.allclose(np.linalg.norm(vh, axis=1), 1.0, atol=1e-12)
    # vh is a row vector, mats ~ s u vh at the top: u* Y vh* = s
    assert np.allclose(np.einsum("bi,bij,bj->b", u.conj(), mats, vh.conj()), s, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("shape", [(3, 2, 5), (3, 5, 2), (2, 4, 4)])
def test_top_singular_of_zero_matrices_is_finite(shape):
    s, u, vh = _top_singular(np.zeros(shape, complex))
    assert np.array_equal(s, np.zeros(shape[0]))
    assert np.isfinite(u).all() and np.isfinite(vh).all()


@pytest.mark.parametrize("ni, no", [(3, 5), (5, 2)])
def test_pinned_values_and_adjoint_match_einsum(rng, ni, no):
    g = 7
    gs, c4, vals = _complex(rng, (g, ni, ni)), _complex(rng, (ni, no, ni, no)), _complex(rng, (g, no, no))
    pinned = _pinned_values(c4, gs)
    adjoint = _pinned_adjoint(gs.conj(), vals)
    assert np.allclose(pinned, pinned_values_by_einsum(c4, gs), rtol=0.0, atol=1e-12)
    assert np.allclose(adjoint, pinned_adjoint_by_einsum(gs, vals), rtol=0.0, atol=1e-12)
    assert np.vdot(pinned, vals).real == pytest.approx(np.vdot(c4, adjoint).real, rel=1e-12)
