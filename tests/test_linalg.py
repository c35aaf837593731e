import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opalg.examples import matrix_unit
from opalg.linalg import (
    LinearMapOnSubspace,
    Subspace,
    ToleranceConfig,
    as_matrix,
    close_span,
    contains,
    hs_inner,
    hs_norm,
    max_projection_residual,
    numerical_rank,
    op_norm,
    orthonormalize,
    product_stack,
    random_unitary,
    row_basis,
    sqrt_psd,
)

from .oracles import amplified_norm_ratio, amplify, product_stack_by_einsum


def test_tolerance_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=1e-3, sdp_tol=1e-7)
    with pytest.raises(ValueError):
        ToleranceConfig(max_iter=0)
    cfg = ToleranceConfig()
    assert cfg.eq_tol == 1e-9 and cfg.sdp_tol == 1e-7 and cfg.max_iter == 50000


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros(3))


def test_orthonormalize_duplicates():
    s = orthonormalize([matrix_unit(2, 1, 1), matrix_unit(2, 1, 1), matrix_unit(2, 1, 2)])
    assert s.dim == 2


def test_orthonormalize_generators():
    u = matrix_unit(4, 1, 3) + matrix_unit(4, 2, 4)
    v = matrix_unit(4, 1, 2) - matrix_unit(4, 3, 4)
    s = orthonormalize([u, v, u @ v])
    assert s.dim == 3


def test_orthonormalize_empty():
    s = orthonormalize([], shape=(3, 3))
    assert s.dim == 0 and s.shape == (3, 3)
    with pytest.raises(ValueError):
        orthonormalize([])


def test_orthonormalize_shape_mismatch():
    with pytest.raises(ValueError):
        orthonormalize([np.zeros((2, 2)), np.zeros((3, 3))])


def test_spans_and_maps_reject_wrong_shapes_and_nonfinite_entries():
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for bad in ((np.zeros((3, 3)),), (nan,), np.zeros((1, 2, 3)), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            Subspace(2, 2, bad)
    s = Subspace(2, 2, (matrix_unit(2, 1, 2),))
    assert s.stack.shape == (1, 2, 2) and Subspace(2, 2, ()).dim == 0
    for bad in ((np.zeros((3, 3)),), (nan,), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError):
            LinearMapOnSubspace(s, bad, (2, 2))
    assert LinearMapOnSubspace(s, s.stack, (2, 2)).images[0].shape == (2, 2)


def test_reorthonormalize_is_identity(rng):
    mats = [rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4)) for _ in range(3)]
    s = orthonormalize(mats)
    s2 = orthonormalize(list(s.basis))
    assert s2.dim == s.dim
    for b in s.basis:
        assert contains(s2, b)
    gram = np.array([[hs_inner(a, b) for b in s.basis] for a in s.basis])
    assert np.allclose(gram, np.eye(s.dim), atol=1e-12)


def test_close_span_product_closure():
    e12, e23, e13 = matrix_unit(3, 1, 2), matrix_unit(3, 2, 3), matrix_unit(3, 1, 3)
    closed = close_span([e12, e23], lambda w: product_stack(w, w), shape=(3, 3))
    assert closed.dim == 3
    assert all(contains(closed, x) for x in (e12, e23, e13))
    assert not contains(closed, matrix_unit(3, 2, 1))


def test_close_span_zero_seed():
    never = lambda w: pytest.fail("step called on the zero subspace")  # noqa: E731
    for seed in ([], np.zeros((0, 2, 3), complex), [np.zeros((2, 3), complex)]):
        closed = close_span(seed, never, shape=(2, 3))
        assert closed.dim == 0 and closed.shape == (2, 3)


def test_close_span_invariant_orbit_stops_at_fixed_point():
    # e3 -> e2 = e23 e3 -> e1 = e12 e2: two growing rounds, then one that adds nothing
    strict = np.stack([matrix_unit(3, 1, 2), matrix_unit(3, 2, 3)])
    calls = []

    def step(u):
        calls.append(u.shape[0])
        return product_stack(strict, u)

    orbit = close_span([np.eye(3)[:, [2]]], step, shape=(3, 1))
    assert orbit.dim == 3 and orbit.shape == (3, 1)
    assert calls == [1, 2, 3]


def _rank_rule_stack(rng):
    """Five 6 x 4 members of rank 0 to 4: the first all zero, the third a
    rank-2 matrix with four zero rows padded below."""
    g = rng.standard_normal((5, 6, 4)) + 1j * rng.standard_normal((5, 6, 4))
    rows = np.stack([g[k, :, :k] @ g[k, :k, :] for k in range(5)])
    rows[2, 2:] = 0.0
    return rows


def test_rank_rule_broadcasts_over_a_stack(rng):
    rows = _rank_rule_stack(rng)
    s = np.linalg.svd(rows, compute_uv=False)
    for min_scale in (0.0, 1.0):
        ranks = numerical_rank(s, 1e-9, min_scale)
        assert ranks.tolist() == [numerical_rank(x, 1e-9, min_scale) for x in s]
    assert numerical_rank(s, 1e-9).tolist() == [0, 1, 2, 3, 4]
    basis = row_basis(rows, 1e-9)
    assert basis.shape == (5, 4, 4)
    for member, x in zip(basis, rows):
        alone = row_basis(x, 1e-9)
        assert np.array_equal(member[: len(alone)], alone)
        assert not member[len(alone) :].any()


def test_rank_rule_ignores_zero_padding(rng):
    # a member padded with zero rows has the rank and the row space of the
    # member without them
    rows = _rank_rule_stack(rng)
    padded = np.concatenate([rows, np.zeros((5, 3, 4), complex)], axis=1)
    s, s_padded = (np.linalg.svd(r, compute_uv=False) for r in (rows, padded))
    assert np.array_equal(numerical_rank(s, 1e-9), numerical_rank(s_padded, 1e-9))
    for a, b in zip(row_basis(rows, 1e-9), row_basis(padded, 1e-9)):
        assert np.abs(a.conj().T @ a - b.conj().T @ b).max() <= 1e-12


def test_product_stack_broadcasts_over_a_stack(rng):
    left, right = (rng.standard_normal((4, 3, 2, 2)) + 1j * rng.standard_normal((4, 3, 2, 2)) for _ in range(2))
    out = product_stack(left, right)
    assert out.shape == (4, 9, 2, 2)
    for k in range(4):
        assert np.array_equal(out[k], product_stack(left[k], right[k]))


def test_close_span_batch_equals_each_member_alone():
    # members close onto spans of dimension 0, 1, 2 and 3; zero seed
    # matrices pad the shorter seeds
    e = lambda i, j: matrix_unit(3, i, j)  # noqa: E731
    seeds = [[], [e(1, 2)], [e(1, 2), e(1, 3)], [e(1, 2) + e(1, 3), e(2, 3)]]
    stack = np.zeros((4, 2, 3, 3), complex)
    for t, mats in enumerate(seeds):
        stack[t, : len(mats)] = mats or 0.0
    basis, dims, residual = close_span(stack, lambda w: product_stack(w, w))
    assert dims.tolist() == [0, 1, 2, 3] and basis.shape == (4, 3, 9)
    assert (residual <= 1e-9).all()
    for t, mats in enumerate(seeds):
        alone = close_span(mats, lambda w: product_stack(w, w), shape=(3, 3))
        member = orthonormalize(basis[t, : dims[t]].reshape(-1, 3, 3), shape=(3, 3))
        assert alone.dim == member.dim == dims[t]
        assert not basis[t, dims[t] :].any()
        assert max_projection_residual(alone, member.stack) <= 1e-12
        assert max_projection_residual(member, alone.stack) <= 1e-12


@pytest.mark.parametrize("shapes", [((3, 2, 2), (3, 2, 2)), ((2, 4, 4), (5, 4, 4)), ((4, 2, 3), (3, 3, 5))])
def test_product_stack_matches_einsum(rng, shapes):
    # a-major: entry a * len(right) + b is left[a] @ right[b]
    left, right = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes)
    out = product_stack(left, right)
    assert out.shape == (shapes[0][0] * shapes[1][0], shapes[0][1], shapes[1][2])
    assert np.abs(out - product_stack_by_einsum(left, right)).max() <= 1e-13
    assert np.allclose(out[1 * len(right) + 2], left[1] @ right[2])


def test_product_stack_of_empty_stacks():
    assert product_stack(np.zeros((0, 2, 3)), np.ones((4, 3, 5))).shape == (0, 2, 5)
    assert product_stack(np.ones((4, 2, 3)), np.zeros((0, 3, 5))).shape == (0, 2, 5)


def test_contains_basic():
    s = orthonormalize([matrix_unit(2, 1, 1)])
    assert contains(s, matrix_unit(2, 1, 1))
    assert not contains(s, matrix_unit(2, 1, 2))


def test_contains_product_of_generators(car_pair):
    vu = matrix_unit(4, 1, 4)
    assert contains(car_pair.space, vu)


def test_contains_unitary_recombination(rng):
    mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(3)]
    s = orthonormalize(mats)
    q = random_unitary(3, rng)
    mixed = [sum(q[i, j] * s.basis[j] for j in range(3)) for i in range(3)]
    s2 = orthonormalize(mixed)
    x = 0.3 * mats[0] - 1j * mats[2]
    assert contains(s, x) and contains(s2, x)
    outside = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert contains(s, outside) == contains(s2, outside)


def test_contains_shape_error():
    s = orthonormalize([matrix_unit(2, 1, 1)])
    with pytest.raises(ValueError):
        contains(s, np.zeros((3, 3)))


def test_op_norm_values(pq):
    assert op_norm(matrix_unit(2, 1, 2)) == pytest.approx(1.0)
    assert op_norm(pq) == pytest.approx(1.0)
    assert op_norm(2.0 * np.eye(3)) == pytest.approx(2.0)


def test_op_norm_submultiplicative_unitary_invariant(rng):
    for _ in range(10):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-12
        q = random_unitary(4, rng)
        assert op_norm(q @ a) == pytest.approx(op_norm(a))
        assert op_norm(a @ q) == pytest.approx(op_norm(a))


def test_sqrt_psd_values(pq):
    assert np.allclose(sqrt_psd(np.eye(2)), np.eye(2))
    assert np.allclose(sqrt_psd(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))
    # 1 - z*z for z the corner projection: z*z = diag(0,1,1,0)
    defect = np.eye(4) - pq.conj().T @ pq
    assert np.allclose(sqrt_psd(defect), np.diag([1.0, 0.0, 0.0, 1.0]))


def test_sqrt_psd_random_roundtrip(rng, tol):
    for n in (2, 5, 8):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = g @ g.conj().T
        r = sqrt_psd(x)
        assert hs_norm(r @ r - x) <= 10 * tol.eq_tol * max(1.0, hs_norm(x))
        assert hs_norm(r - r.conj().T) <= 1e-10


def test_sqrt_psd_errors():
    with pytest.raises(ValueError):
        sqrt_psd(matrix_unit(2, 1, 2))  # not Hermitian
    with pytest.raises(ValueError):
        sqrt_psd(np.diag([1.0, -1.0]))  # indefinite
    # an eigenvalue inside the clipping band is accepted
    clipped = sqrt_psd(np.diag([1.0, -5e-10]))
    assert np.allclose(clipped, np.diag([1.0, 0.0]), atol=1e-4)


def test_amplify_identity(rng):
    s = orthonormalize([matrix_unit(2, 1, 1), matrix_unit(2, 1, 2)])
    phi = LinearMapOnSubspace(s, tuple(s.basis), (2, 2))
    x = np.kron(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
    # make blocks lie in the domain span
    blocks = [[s.project(x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]) for j in range(2)] for i in range(2)]
    x = np.block(blocks)
    assert np.allclose(amplify(phi, 2, x), x)


def test_amplify_transpose_doubles_norm():
    full = orthonormalize([matrix_unit(2, i, j) for i in (1, 2) for j in (1, 2)])
    phi = LinearMapOnSubspace(full, tuple(b.T for b in full.basis), (2, 2))
    # block (u, v) holds e_{vu}; the image blocks are e_{uv}
    x = np.zeros((4, 4), complex)
    for u in range(2):
        for v in range(2):
            x[2 * u : 2 * u + 2, 2 * v : 2 * v + 2] = matrix_unit(2, v + 1, u + 1)
    out = amplify(phi, 2, x)
    # oracle: assemble the image by hand and take singular values
    coeffs = np.zeros((2, 2, 4), complex)
    for u in range(2):
        for v in range(2):
            coeffs[u, v] = full.coeffs(matrix_unit(2, v + 1, u + 1))
    ratio, x_oracle = amplified_norm_ratio(list(full.basis), [b.T for b in full.basis], coeffs)
    assert np.allclose(x, x_oracle)
    assert op_norm(x) == pytest.approx(1.0)
    assert op_norm(out) == pytest.approx(2.0)
    assert ratio == pytest.approx(2.0)


def test_amplify_zero_map():
    s = orthonormalize([matrix_unit(2, 1, 2)])
    phi = LinearMapOnSubspace(s, (np.zeros((3, 3), complex),), (3, 3))
    x = np.kron(np.eye(2), matrix_unit(2, 1, 2))
    assert np.allclose(amplify(phi, 2, x), np.zeros((6, 6)))


def test_amplify_rejects_block_outside_domain():
    s = orthonormalize([matrix_unit(2, 1, 2)])
    phi = LinearMapOnSubspace(s, tuple(s.basis), (2, 2))
    x = np.kron(np.eye(2), matrix_unit(2, 2, 1))
    with pytest.raises(ValueError):
        amplify(phi, 2, x)


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=4))
def test_span_membership_under_combination(coeffs):
    basis = [matrix_unit(3, 1, 2), matrix_unit(3, 2, 3), matrix_unit(3, 1, 3)]
    s = orthonormalize(basis)
    x = sum(complex(a, b) * m for (a, b), m in zip(coeffs, basis))
    assert contains(s, x)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_orthonormal_gram_property(seed):
    r = np.random.default_rng(seed)
    mats = [r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3)) for _ in range(4)]
    s = orthonormalize(mats)
    gram = np.array([[hs_inner(a, b) for b in s.basis] for a in s.basis])
    assert np.allclose(gram, np.eye(s.dim), atol=1e-11)
