import sys

import numpy as np
import pytest

from opalg import examples as ex
from opalg import linalg, tro
from opalg.linalg import contains, hs_norm, max_projection_residual, orthonormalize, random_unitary
from opalg.tro import (
    block_decompose,
    generate_tro,
    injective_envelope,
    is_simple_tro,
    linking_algebra,
    multiplicative_embed,
    support_projections,
)

from .oracles import star_closure_of_pairs, tro_by_triple_products

unit = ex.matrix_unit


def test_generate_tro_car_pair(car_pair):
    w = generate_tro(car_pair.space)
    assert w.dim == 9
    for i in (1, 2, 3):
        for j in (2, 3, 4):
            assert contains(w.space, unit(4, i, j))
    assert w.closure_residual <= 1e-9


def test_generate_tro_strict_upper_corner():
    w = generate_tro(ex.strict_upper(3).space)
    assert w.dim == 4
    for i in (1, 2):
        for j in (2, 3):
            assert contains(w.space, unit(3, i, j))


def test_generate_tro_single_projection():
    s = orthonormalize([unit(2, 1, 1)])
    w = generate_tro(s)
    assert w.dim == 1 and contains(w.space, unit(2, 1, 1))


def test_generate_tro_idempotent(car_pair):
    w = generate_tro(car_pair.space)
    w2 = generate_tro(w.space)
    assert w2.dim == w.dim
    for b in w.basis:
        assert contains(w2.space, b)


def test_linking_algebra(car_pair):
    link = linking_algebra(car_pair.space)
    assert link.dim == 9
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            assert contains(link.space, unit(4, i, j))
    small = linking_algebra(orthonormalize([unit(2, 1, 2)]))
    assert small.dim == 1 and contains(small.space, unit(2, 1, 1))


def test_linking_algebra_family():
    for n in (1, 2):
        A = ex.anticommuting_family(n)
        link = linking_algebra(A.space)
        assert link.dim == (2 * n + 1) ** 2


def _linking_inputs():
    # besides the corpus: a shear, whose x x* alone spans no algebra (it is
    # not a multiple of a projection), and two generic 2 x 3 matrices, a
    # rectangular ambient
    rng = np.random.default_rng(7)
    rect = rng.standard_normal((2, 2, 3)) + 1j * rng.standard_normal((2, 2, 3))
    return [(name, A.space) for name, A in ex.corpus()] + [
        ("shear", orthonormalize([np.eye(2) + unit(2, 1, 2)])),
        ("rect-pair", orthonormalize(list(rect))),
    ]


@pytest.mark.parametrize("name", [name for name, _ in _linking_inputs()])
def test_linking_algebra_matches_star_closure_oracle(name):
    given = dict(_linking_inputs())[name]
    m, n = given.shape
    u = random_unitary(m, np.random.default_rng(sum(map(ord, name))))
    v = random_unitary(n, np.random.default_rng(sum(map(ord, name)) + 1))
    conjugated = orthonormalize([u.conj().T @ b @ v for b in given.basis])
    for space in (given, conjugated):
        link = linking_algebra(space)
        expected = orthonormalize(star_closure_of_pairs(space.basis))
        assert link.dim == expected.dim
        assert max_projection_residual(expected, link.space.stack) <= 1e-9
        assert max_projection_residual(link.space, expected.stack) <= 1e-9


@pytest.mark.parametrize("name", [name for name, _ in ex.corpus()] + ["row-band"])
def test_generated_linking_algebra_is_adjoint_closed(name):
    band = orthonormalize([unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)])
    space = band if name == "row-band" else dict(ex.corpus())[name].space
    w = generate_tro(space)
    link = w.linking
    assert link.space.shape == (space.ambient_rows, space.ambient_rows)
    assert max_projection_residual(link.space, link.space.stack.conj().transpose(0, 2, 1)) <= 1e-9
    # it is the pair space of the TRO: every x y* lies in it
    pairs = np.einsum("aij,bkj->abik", w.space.stack, w.space.stack.conj()).reshape(-1, *link.space.shape)
    assert max_projection_residual(link.space, pairs) <= 1e-9


@pytest.mark.parametrize("make", [lambda: ex.anticommuting_family(2), lambda: ex.diagonal_algebra(3)],
                         ids=["anticommuting-family-2", "diagonal-3"])
def test_envelope_closes_one_span_inside_generate_tro(monkeypatch, make):
    # one closure per envelope: block_decompose reads the linking algebra
    # that generate_tro kept, so linking_algebra and a second close_span
    # loop stay out of injective_envelope
    A = make()
    original = linalg.close_span
    callers, linking_calls = [], []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("opalg") and getattr(module, "close_span", None) is original:
            monkeypatch.setattr(module, "close_span", spy)
    monkeypatch.setattr(tro, "linking_algebra", lambda *a, **k: linking_calls.append(1))
    injective_envelope(A.space)
    assert linking_calls == []
    assert callers == ["generate_tro"]


def _tro_inputs():
    # the inputs above, a unitary two-sided conjugate of each (u* x v is a
    # ternary isomorphism), and random triangular algebras in M_3 and M_4
    out = {}
    for name, space in _linking_inputs():
        rng = np.random.default_rng(sum(map(ord, name)))
        u, v = random_unitary(space.ambient_rows, rng), random_unitary(space.ambient_cols, rng)
        out[name] = space
        out[f"{name}~conj"] = orthonormalize([u.conj().T @ b @ v for b in space.basis])
    for ambient, seeds in ((3, range(8)), (4, range(4))):
        for s in seeds:
            out[f"triangular-{ambient}-{s}"] = ex.random_triangular_algebra(ambient, 4, 700 + s).space
    return out


TRO_INPUTS = _tro_inputs()


@pytest.mark.parametrize("name", list(TRO_INPUTS))
def test_generate_tro_matches_triple_product_oracle(name):
    space = TRO_INPUTS[name]
    w = generate_tro(space)
    expected = orthonormalize(tro_by_triple_products(space.basis))
    assert w.dim == expected.dim
    assert max_projection_residual(expected, w.space.stack) <= 1e-9
    assert max_projection_residual(w.space, expected.stack) <= 1e-9
    assert w.closure_residual <= 1e-9
    # the kept linking algebra is span(W W*) of the oracle's TRO
    pairs = orthonormalize(
        np.einsum("aij,bkj->abik", expected.stack, expected.stack.conj()).reshape(-1, space.shape[0], space.shape[0])
    )
    assert w.linking.dim == pairs.dim
    assert max_projection_residual(pairs, w.linking.space.stack) <= 1e-9
    assert max_projection_residual(w.linking.space, pairs.stack) <= 1e-9


def _beside_corner(space):
    """The direct sum of the space and a 1 x 1 corner, as one space."""
    m, n = space.shape
    corner = np.zeros((m + 1, n + 1), complex)
    corner[m, n] = 1.0
    return orthonormalize([np.pad(b, ((0, 1), (0, 1))) for b in space.basis] + [corner])


@pytest.mark.parametrize("name", list(TRO_INPUTS))
def test_single_block_path_matches_spectral_split(name):
    # beside a 1 x 1 corner the center has dimension at least two, so the
    # blocks come from the eigen-split; they must be the blocks of the space
    # alone, padded, plus the corner, whichever path the space alone takes
    space = TRO_INPUTS[name]
    alone = block_decompose(generate_tro(space))
    split = block_decompose(generate_tro(_beside_corner(space)))
    assert sorted(split.blocks) == sorted(alone.blocks + ((1, 1),))
    pad = lambda p: np.pad(p, ((0, 1), (0, 1)))
    for shape, lp, rp in zip(alone.blocks, alone.left_projections, alone.right_projections):
        assert any(
            shape == other and np.allclose(pad(lp), olp, atol=1e-9) and np.allclose(pad(rp), orp, atol=1e-9)
            for other, olp, orp in zip(split.blocks, split.left_projections, split.right_projections)
        )


def test_single_block_needs_a_scalar_center(monkeypatch, car_pair):
    # a one-dimensional center that is not a multiple of the left support
    # is a wrong state, not one block
    w = generate_tro(car_pair.space)
    e11 = w.linking.space.coeffs(unit(4, 1, 1))
    monkeypatch.setattr(tro, "null_space", lambda *a, **k: e11[None, :])
    with pytest.raises(tro.DegenerateDecompositionError):
        block_decompose(w)


def test_envelope_svd_count_on_a_search_trial(monkeypatch):
    # the first trial of `opalg search --ambient 3 --seed 1` has one block;
    # its envelope factorizes X X*, one closure round of the linking
    # algebra, X + L X, the two supports and the center: never the d_W^2
    # stack W W*, and no eigen-split
    A = ex.random_triangular_algebra(3, 4, 4720721261117928062)
    original, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or original(*a, **k))
    env = injective_envelope(A.space)
    assert env.status == "EXACT" and env.blocks.blocks == ((2, 2),)
    assert len(calls) == 6


def test_support_projections(car_pair, pq):
    w = generate_tro(car_pair.space)
    p, q = support_projections(w)
    assert np.allclose(p, np.diag([1, 1, 1, 0]).astype(complex))
    assert np.allclose(q, np.diag([0, 1, 1, 1]).astype(complex))
    assert np.allclose(p @ p, p) and np.allclose(p, p.conj().T)
    assert np.allclose(q @ q, q) and np.allclose(q, q.conj().T)
    # here the two supports commute, so their product is itself a projection
    assert np.allclose(p @ q, q @ p)
    assert np.allclose((p @ q) @ (p @ q), p @ q)
    assert np.allclose(p @ q, pq)
    for x in w.basis:
        assert hs_norm(p @ x @ q - x) <= 1e-9


def test_support_projections_family():
    for n in (1, 2):
        A = ex.anticommuting_family(n)
        w = generate_tro(A.space)
        p, q = support_projections(w)
        k = 2 * n + 1
        assert np.allclose(p, np.diag([1.0] * k + [0.0]))
        assert np.allclose(q, np.diag([0.0] + [1.0] * k))


def test_support_projections_rank_one():
    w = generate_tro(orthonormalize([unit(2, 1, 1)]))
    p, q = support_projections(w)
    assert np.allclose(p, unit(2, 1, 1)) and np.allclose(q, unit(2, 1, 1))


def test_block_decompose_simple(car_pair):
    w = generate_tro(car_pair.space)
    bs = block_decompose(w)
    assert bs.blocks == ((3, 3),)
    assert is_simple_tro(w)


def test_block_decompose_diagonal():
    w = generate_tro(orthonormalize([unit(2, 1, 1), unit(2, 2, 2)]))
    bs = block_decompose(w)
    assert bs.blocks == ((1, 1), (1, 1))
    assert not is_simple_tro(w)


def test_block_decompose_two_corners():
    w = generate_tro(orthonormalize([unit(4, 1, 2), unit(4, 3, 4)]))
    bs = block_decompose(w)
    assert bs.blocks == ((1, 1), (1, 1))


def test_block_decompose_orders_blocks_by_size_then_first_row():
    w = generate_tro(orthonormalize([unit(3, 1, 1)] + [unit(3, i, j) for i in (2, 3) for j in (2, 3)]))
    bs = block_decompose(w)
    assert bs.blocks == ((2, 2), (1, 1))
    assert np.allclose(bs.left_projections[0], np.diag([0, 1, 1])) and np.allclose(bs.left_projections[1], unit(3, 1, 1))
    w = generate_tro(orthonormalize([unit(4, 3, 4), unit(4, 1, 2)]))
    bs = block_decompose(w)
    assert np.allclose(bs.left_projections[0], unit(4, 1, 1)) and np.allclose(bs.right_projections[0], unit(4, 2, 2))


def test_block_decompose_roundtrip(rng):
    mats = [unit(4, 1, 2) + unit(4, 3, 4), unit(4, 1, 4)]
    w = generate_tro(orthonormalize(mats))
    bs = block_decompose(w)
    lu, ru = bs.left_unitary, bs.right_unitary
    assert np.allclose(lu.conj().T @ lu, np.eye(4), atol=1e-10)
    assert np.allclose(ru.conj().T @ ru, np.eye(4), atol=1e-10)
    for x in w.basis:
        rot = lu.conj().T @ x @ ru
        back = lu @ rot @ ru.conj().T
        assert hs_norm(back - x) <= 1e-8


def test_full_rectangular_is_simple():
    mats = [unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)]
    w = generate_tro(orthonormalize(mats))
    assert w.dim == 6
    assert is_simple_tro(w)
    assert block_decompose(w).blocks == ((2, 3),)


def test_envelope_exact_cases(car_pair):
    env = injective_envelope(car_pair.space)
    assert env.status == "EXACT" and env.envelope.dim == 9
    for n in (3, 4):
        env = injective_envelope(ex.strict_upper(n).space)
        assert env.status == "EXACT"
        assert env.blocks.blocks == ((n - 1, n - 1),)
    for n in (1, 2):
        env = injective_envelope(ex.anticommuting_family(n).space)
        assert env.status == "EXACT"
        assert env.blocks.blocks == ((2 * n + 1, 2 * n + 1),)


def test_envelope_candidate_when_not_simple():
    space = orthonormalize([unit(2, 1, 1), unit(2, 2, 2)])
    env = injective_envelope(space)
    assert env.status == "CANDIDATE"
    assert env.deleted_blocks == ()
    assert env.envelope.dim == 2


def test_envelope_embedding_identity_when_exact(car_pair):
    env = injective_envelope(car_pair.space)
    for b in car_pair.basis:
        assert np.allclose(env.embedding.apply(b), b)


def test_multiplicative_embed_scalar():
    z_space = generate_tro(orthonormalize([np.eye(1, dtype=complex)]))
    phi = multiplicative_embed(z_space, np.eye(1, dtype=complex))
    out = phi.apply(np.eye(1, dtype=complex))
    assert np.allclose(out, np.array([[1, 0], [0, 0]], complex))


def test_multiplicative_embed_zero_pairing():
    z_space = generate_tro(orthonormalize([unit(2, 1, 2)]))
    phi = multiplicative_embed(z_space, np.zeros((2, 2), complex))
    out = phi.apply(unit(2, 1, 2))
    expect = np.zeros((4, 4), complex)
    expect[0:2, 2:4] = unit(2, 1, 2)
    assert np.allclose(out, expect)
    prod = out @ out
    assert np.allclose(prod, 0.0)


def test_multiplicative_embed_car_pair(car_pair, pq):
    # with the pairing element pq the embedded images multiply like A does:
    # phi(x) phi(y) = phi(x pq^* y) = phi(x y)
    env = injective_envelope(car_pair.space)
    phi = multiplicative_embed(env.envelope, pq)
    for x in car_pair.basis:
        for y in car_pair.basis:
            prod = phi.apply(x) @ phi.apply(y)
            assert hs_norm(x @ pq.conj().T @ y - x @ y) <= 1e-12
            assert hs_norm(prod - phi.apply(x @ y)) <= 1e-9


def test_multiplicative_embed_completely_isometric(car_pair, pq):
    from opalg.cb import FEASIBLE, is_complete_isometry

    env = injective_envelope(car_pair.space)
    phi = multiplicative_embed(env.envelope, pq)
    assert is_complete_isometry(phi).status == FEASIBLE


def test_envelope_family_n3():
    A = ex.anticommuting_family(3)
    env = injective_envelope(A.space)
    assert env.status == "EXACT" and env.blocks.blocks == ((7, 7),)


def test_multiplicative_embed_errors(car_pair, pq):
    env = injective_envelope(car_pair.space)
    with pytest.raises(ValueError):
        multiplicative_embed(env.envelope, 2.0 * pq)
    with pytest.raises(ValueError):
        multiplicative_embed(env.envelope, np.eye(4, dtype=complex))  # not in the TRO
