import dataclasses
import sys

import numpy as np
import pytest

from opalg import examples as ex
from opalg import cb, cli, linalg, tro
from opalg.linalg import contains, hs_norm, max_projection_residual, op_norm, orthonormalize, random_unitary
from opalg.tro import (
    TROSpace,
    block_decompose,
    generate_tro,
    injective_envelope,
    linking_algebra,
    multiplicative_embed,
    support_projections,
)

from .oracles import (
    block_shape_by_ranks,
    commutant_and_center_dims,
    completely_isometric_kept_sets,
    conjugation_fit_both_loops,
    embedding_residuals_by_loops,
    star_closure_of_pairs,
    tro_by_triple_products,
)

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
    link = linking_algebra(space)
    assert link.space.shape == (space.ambient_rows, space.ambient_rows)
    assert max_projection_residual(link.space, link.space.stack.conj().transpose(0, 2, 1)) <= 1e-9
    # it is the pair space of the TRO: every x y* lies in it
    pairs = np.einsum("aij,bkj->abik", w.space.stack, w.space.stack.conj()).reshape(-1, *link.space.shape)
    assert max_projection_residual(link.space, pairs) <= 1e-9


@pytest.mark.parametrize(
    "make, commutants",
    [(lambda: ex.anticommuting_family(2), 0), (lambda: ex.diagonal_algebra(3), 1)],
    ids=["anticommuting-family-2", "diagonal-3"],
)
def test_no_envelope_calls_close_span(monkeypatch, make, commutants):
    # no envelope closes a span: a full corner p M q is read off one rank
    # count, and every other TRO off one commutant inside generate_tro, whose
    # center block_decompose reads, so linking_algebra stays out too
    A = make()
    original, read = linalg.close_span, tro._commutant_tro
    callers, linking_calls, commutant_calls = [], [], []

    def spy(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("opalg") and getattr(module, "close_span", None) is original:
            monkeypatch.setattr(module, "close_span", spy)
    monkeypatch.setattr(tro, "linking_algebra", lambda *a, **k: linking_calls.append(1))
    monkeypatch.setattr(tro, "_commutant_tro", lambda *a, **k: commutant_calls.append(1) or read(*a, **k))
    injective_envelope(A.space)
    assert callers == [] and linking_calls == []
    assert len(commutant_calls) == commutants


def _closure_path(space):
    """The linking algebra and TRO of space by the closure: L the *-closure
    of the pairs x y*, W the closure of X under left multiplication by L."""
    link = orthonormalize(star_closure_of_pairs(space.basis))
    return link, linalg.close_span(space.stack, lambda cur: linalg.product_stack(link.stack, cur))


def _assert_same_span(a, b):
    assert a.dim == b.dim
    assert max_projection_residual(a, b.stack) <= 1e-9 and max_projection_residual(b, a.stack) <= 1e-9


def _assert_full_corner_path(monkeypatch, space):
    read, commutant_calls = tro._commutant_tro, []
    monkeypatch.setattr(tro, "_commutant_tro", lambda *a, **k: commutant_calls.append(1))
    w = generate_tro(space)
    bs = block_decompose(w)
    assert w.full_corner and commutant_calls == [] and w.center is None
    link, closed = _closure_path(space)
    _assert_same_span(w.space, closed)
    _assert_same_span(linking_algebra(space).space, link)
    # the commutant path, called directly, finds the same TRO and block
    commuted = read(space, w.supports, linalg.DEFAULT_TOL)
    _assert_same_span(commuted.space, w.space)
    monkeypatch.setattr(TROSpace, "full_corner", False)
    centered = block_decompose(commuted)
    assert (bs.blocks, bs.multiplicities) == (centered.blocks, centered.multiplicities)


def _presentations(name, space):
    """The space, a seeded unitary conjugate, and each rescaled by 1e-6."""
    u = random_unitary(space.ambient_rows, np.random.default_rng(sum(map(ord, name))))
    conjugated = [u @ b @ u.conj().T for b in space.basis]
    return [orthonormalize([scale * b for b in mats]) for mats in (space.basis, conjugated) for scale in (1.0, 1e-6)]


CENTER_PATH = ("diagonal-2", "diagonal-3", "split-pair", "m2-twice")


@pytest.mark.parametrize("name", [name for name, _ in ex.corpus()] + ["m2-twice"])
def test_full_corner_path_matches_the_closure_path(monkeypatch, name):
    # a full corner p M q is read off the supports by one rank count; its
    # TRO, linking algebra and block are those of the closure and of the
    # commutant.  The other inputs are read off the commutant, and their
    # TRO is still that of the closure
    space = orthonormalize(ENVELOPE_CASES[name][0]) if name == "m2-twice" else dict(ex.corpus())[name].space
    for given in _presentations(name, space):
        if name not in CENTER_PATH:
            with monkeypatch.context() as patch:
                _assert_full_corner_path(patch, given)
            continue
        w = generate_tro(given)
        block_decompose(w)
        assert not w.full_corner and w.center is not None
        _assert_same_span(w.space, _closure_path(given)[1])


def test_search_spans_take_the_full_corner_path(monkeypatch):
    # every distinct span of `run_search(ambient=3, trials=200, seed=1,
    # max_dim=3)`
    spans = {}
    for trial in np.random.default_rng(1).integers(0, 2**63 - 1, size=200):
        A = ex.random_triangular_algebra(3, 3, int(trial))
        spans.setdefault(cli._subspace_key(A.space), A.space)
    for space in spans.values():
        with monkeypatch.context() as patch:
            _assert_full_corner_path(patch, space)


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
    # the linking algebra is span(W W*) of the oracle's TRO
    pairs = orthonormalize(
        np.einsum("aij,bkj->abik", expected.stack, expected.stack.conj()).reshape(-1, space.shape[0], space.shape[0])
    )
    link = linking_algebra(space)
    assert link.dim == pairs.dim
    assert max_projection_residual(pairs, link.space.stack) <= 1e-9
    assert max_projection_residual(link.space, pairs.stack) <= 1e-9


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


def test_single_block_needs_a_scalar_center():
    # a one-dimensional center that is not a multiple of the identity on
    # the supports is a wrong state, not one block; {diag(t, t)} =
    # M_2 tensor 1_2 is no full corner, so its block form reads the center
    w = generate_tro(orthonormalize(ENVELOPE_CASES["m2-twice"][0]))
    assert not w.full_corner and len(w.center) == 1
    e11 = np.zeros_like(w.center)
    e11[0, 0, 0] = 1.0
    with pytest.raises(tro.DegenerateDecompositionError, match="no center element splits"):
        block_decompose(dataclasses.replace(w, center=e11))


def _count_svds(monkeypatch):
    original, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or original(*a, **k))
    return calls


def test_envelope_svd_count_on_a_search_trial(monkeypatch):
    # the first trial of `opalg search --ambient 3 --seed 1` is a full
    # corner: its envelope factorizes X X* and the two supports, never the
    # commutant, nor the d_W^2 stack W W*
    A = ex.random_triangular_algebra(3, 4, 4720721261117928062)
    calls = _count_svds(monkeypatch)
    env = injective_envelope(A.space)
    assert env.status == "EXACT" and env.blocks.blocks == ((2, 2),)
    assert len(calls) == 3


def test_envelope_svd_count_on_a_trial_that_is_no_full_corner(monkeypatch):
    # the first trial of `opalg search --ambient 4 --seed 1` that is no full
    # corner: the rank count and the two supports, one null space each for
    # the commutant, the TRO and the center, and two singular value lists per
    # block, 10 factorizations (the linking algebra's closure took 13)
    A = ex.random_triangular_algebra(4, 4, 7634208958675629713)
    calls = _count_svds(monkeypatch)
    assert block_decompose(generate_tro(A.space)).blocks == ((1, 1), (1, 1))
    assert len(calls) == 10


@pytest.mark.parametrize("name", ["wide-45", "wide-49", "diagonal-3~conj"])
def test_block_order_does_not_depend_on_the_seed(name):
    # blocks of equal shape and invariants are ordered by their left row
    # masses, not by the random central element: WIDE_SAMPLE[45] has a block
    # with row masses (0, 1/2, 1/2) beside one on row 0
    space = TRO_INPUTS[name] if name in TRO_INPUTS else WIDE_SAMPLE[int(name[5:])]
    w = generate_tro(space)
    first = block_decompose(w, seed=0)
    for seed in range(1, 10):
        other = block_decompose(w, seed=seed)
        assert other.blocks == first.blocks and other.multiplicities == first.multiplicities
        for mine, theirs in zip(first.left_projections + first.right_projections,
                                other.left_projections + other.right_projections):
            assert np.allclose(mine, theirs, atol=1e-9)


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


def test_block_decompose_diagonal():
    w = generate_tro(orthonormalize([unit(2, 1, 1), unit(2, 2, 2)]))
    bs = block_decompose(w)
    assert bs.blocks == ((1, 1), (1, 1))


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


def test_block_decompose_roundtrip():
    # the block supports are orthogonal projections, mutually orthogonal on
    # each side, and sum_k p_k x q_k = x on the TRO; {diag(t, t)} is one
    # block of multiplicity 2, no full corner, so it takes the spectral split
    for mats in ([unit(4, 1, 2) + unit(4, 3, 4), unit(4, 1, 4)], ENVELOPE_CASES["m2-twice"][0]):
        w = generate_tro(orthonormalize(mats))
        bs = block_decompose(w)
        for projections in (bs.left_projections, bs.right_projections):
            for j, pj in enumerate(projections):
                assert np.allclose(pj @ pj, pj, atol=1e-10) and np.allclose(pj.conj().T, pj, atol=1e-10)
                assert all(np.allclose(pj @ pk, 0.0, atol=1e-10) for pk in projections[j + 1 :])
        for x in w.basis:
            back = sum(p @ x @ q for p, q in zip(bs.left_projections, bs.right_projections))
            assert hs_norm(back - x) <= 1e-8


def test_full_rectangular_is_simple():
    mats = [unit(2, i, j, 3) for i in (1, 2) for j in (1, 2, 3)]
    w = generate_tro(orthonormalize(mats))
    assert w.dim == 6
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


def test_envelope_of_c_plus_c_is_exact():
    # deleting either block kills half of span{e11, e22}, so the Shilov
    # ideal is 0 with no cb check and C + C is its own envelope
    space = orthonormalize([unit(2, 1, 1), unit(2, 2, 2)])
    env = injective_envelope(space)
    assert env.status == "EXACT"
    assert env.deleted_blocks == ()
    assert env.envelope.dim == 2


def _direct_sum(x, y):
    out = np.zeros((len(x) + len(y),) * 2, complex)
    out[: len(x), : len(x)], out[len(x) :, len(x) :] = x, y
    return out


M2_UNITS = [unit(2, i, j) for i in (1, 2) for j in (1, 2)]
# each input, with its envelope's blocks, multiplicities and deleted
# blocks, and the numbers of is_completely_contractive and min_opnorm_affine
# calls that take them
ENVELOPE_CASES = {
    "m2-beside-its-corner": ([_direct_sum(t, t[:1, :1]) for t in M2_UNITS], ((2, 2), (1, 1)), (1, 1), (1,), (0, 1)),
    "m2-beside-its-transpose": ([_direct_sum(t, t.T) for t in M2_UNITS], ((2, 2), (2, 2)), (1, 1), (), (2, 0)),
    "m2-twice": ([np.kron(np.eye(2), t) for t in M2_UNITS], ((2, 2),), (2,), (), (0, 0)),
    "diag-1-2-3": ([np.diag([1.0, 2.0, 3.0])], ((1, 1),) * 3, (1, 1, 1), (0, 1), (0, 5)),
    "split-pair": ([np.diag([1.0, 1.0, 0.0, 0.0]), unit(4, 3, 4)], ((1, 1),) * 2, (2, 1), (), (0, 0)),
    "diagonal-3": ([unit(3, i, i) for i in (1, 2, 3)], ((1, 1),) * 3, (1, 1, 1), (), (0, 0)),
}


def _envelope_case(name, conjugate):
    mats = ENVELOPE_CASES[name][0]
    n = len(mats[0])
    q = random_unitary(n, np.random.default_rng(sum(map(ord, name)))) if conjugate else np.eye(n)
    return orthonormalize([q @ np.asarray(b, complex) @ q.conj().T for b in mats])


@pytest.mark.parametrize("conjugate", [False, True], ids=["given", "conj"])
@pytest.mark.parametrize("name", list(ENVELOPE_CASES))
def test_envelope_blocks_multiplicities_and_deletions(monkeypatch, name, conjugate):
    # the blocks come in a canonical order, so a unitary conjugate reports
    # the same blocks, multiplicities and deleted blocks; the Shilov rule
    # takes one decision per block that survives its rank test, plus one
    # confirming decision when two or more blocks go.  A decision into 1 x 1
    # blocks takes one min-norm solve per deleted block and no cb check
    _, blocks, multiplicities, deleted, checks = ENVELOPE_CASES[name]
    calls = {"is_completely_contractive": [], "min_opnorm_affine": []}
    for solver, seen in calls.items():
        original = getattr(tro.cb, solver)
        monkeypatch.setattr(tro.cb, solver, lambda *a, f=original, seen=seen: seen.append(1) or f(*a))
    env = injective_envelope(_envelope_case(name, conjugate))
    assert env.status == "EXACT"
    assert env.blocks.blocks == blocks and env.blocks.multiplicities == multiplicities
    assert env.deleted_blocks == deleted and tuple(map(len, calls.values())) == checks
    kept = [k for k in range(len(blocks)) if k not in deleted]
    assert env.envelope.dim == sum(blocks[k][0] * blocks[k][1] for k in kept)


def _wide_sample():
    """Distinct algebras of dimension at most 4 closed from one or two upper
    triangular 3 x 3 generators, each with one to three entries in {-1, 1, 2}
    on or above the diagonal: 362 spans from 1500 draws."""
    rng = np.random.default_rng(0)
    upper = [(i, j) for i in range(3) for j in range(i, 3)]
    seen, out = set(), []
    for _ in range(1500):
        mats = []
        for _ in range(int(rng.integers(1, 3))):
            g = np.zeros((3, 3), complex)
            for pos, v in zip(rng.choice(len(upper), int(rng.integers(1, 4)), replace=False), rng.choice([-1, 1, 2], 3)):
                g[upper[pos]] = v
            mats.append(g)
        span = linalg.close_span(mats, lambda w: linalg.product_stack(w, w), shape=(3, 3))
        flat = span.stack.reshape(span.dim, -1)
        key = (np.round(flat.conj().T @ flat, 8) + 0.0).tobytes()
        if 0 < span.dim <= 4 and key not in seen:
            seen.add(key)
            out.append(span)
    return out


WIDE_SAMPLE = _wide_sample()
# the spans of the sample whose envelope deletes a block
WIDE_DELETING = (1, 8, 28, 44, 48, 87, 108, 121, 128, 131, 143, 146, 156, 166, 185, 186, 193, 207, 233, 235,
                 241, 267, 284, 291, 304, 315, 316, 320, 322, 343, 350)


@pytest.mark.parametrize(
    "case", [f"{name}{mark}" for name in ENVELOPE_CASES for mark in ("", "~conj")] + [f"wide-{i}" for i in WIDE_DELETING]
)
def test_shilov_rule_matches_the_subset_sweep(case):
    # the blocks the envelope keeps are completely isometric on the input,
    # and so is every set of blocks that contains them and no other set
    wide = case.startswith("wide-")
    space = WIDE_SAMPLE[int(case[5:])] if wide else _envelope_case(case.removesuffix("~conj"), case.endswith("~conj"))
    env = injective_envelope(space)
    assert env.status == "EXACT"
    assert env.deleted_blocks or not wide
    bs = env.blocks
    kept = frozenset(range(len(bs.blocks))) - set(env.deleted_blocks)
    found = completely_isometric_kept_sets(space, bs.left_projections, bs.right_projections)
    assert kept in found and all(kept <= other for other in found)


def record_deletions(monkeypatch):
    """Spy on every deletion decision: its arguments and its status."""
    original, decisions = tro._decide_deletion, []

    def spy(*args):
        decisions.append((args, original(*args)))
        return decisions[-1][1]

    monkeypatch.setattr(tro, "_decide_deletion", spy)
    return decisions


def wide_deleting_pairs():
    """Each deleting span of the wide sample and a Haar conjugate of it."""
    for i in WIDE_DELETING:
        q = random_unitary(3, np.random.default_rng(i))
        yield WIDE_SAMPLE[i], orthonormalize([q @ b @ q.conj().T for b in WIDE_SAMPLE[i].basis])


def test_every_deletion_decision_is_settled(monkeypatch):
    # each per-block and confirming map of the deleting spans, given and
    # conjugated, is decided completely contractive or not
    decisions = record_deletions(monkeypatch)
    for given, conjugated in wide_deleting_pairs():
        given, conjugated = injective_envelope(given), injective_envelope(conjugated)
        assert given.status == conjugated.status == "EXACT"
        assert given.deleted_blocks == conjugated.deleted_blocks != ()
    statuses = {status for _, status in decisions}
    assert {tro.cb.FEASIBLE, tro.cb.INFEASIBLE} <= statuses <= {None, tro.cb.FEASIBLE, tro.cb.INFEASIBLE}


def test_scalar_deletions_match_the_cb_decision(monkeypatch):
    # every deletion decision of the deleting spans, their conjugates and
    # the envelope cases has the status of the cb decision with the two-loop
    # fit, the reference.  A decision into 1 x 1 blocks, a min-norm solve per
    # block, takes no least squares and no eigensolve of a Dykstra block
    from .test_cb import record_solvers

    with monkeypatch.context() as patch:
        decisions = record_deletions(patch)
        for pair in wide_deleting_pairs():
            for space in pair:
                injective_envelope(space)
        for name in ENVELOPE_CASES:
            for conjugate in (False, True):
                injective_envelope(_envelope_case(name, conjugate))
    scalar = 0
    for (space, bs, kept, deleted, tol, seed), status in decisions:
        psi = tro._deletion_map(space, bs, kept, deleted, tol)
        if psi is None:
            assert status is None
            continue
        with monkeypatch.context() as patch:
            patch.setattr(tro.cb, "_fit_conjugation_pair", conjugation_fit_both_loops)
            assert status == tro.cb.is_completely_contractive(psi, tol, seed).status
        if all(bs.blocks[k] == (1, 1) for k in deleted):
            scalar += 1
            with monkeypatch.context() as patch:
                calls, sizes = record_solvers(patch)
                assert tro._decide_deletion(space, bs, kept, deleted, tol, seed) == status
            smallest = min(map(len, tro.cb._parity_blocks(space.shape, space.shape)))
            assert calls["lstsq"] == 0
            assert all(size < smallest for name, size in sizes if name in ("eigh", "eigvalsh"))
    assert (len(decisions), scalar) == (150, 106)


@pytest.mark.parametrize("conjugate", [False, True], ids=["given", "conj"])
@pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
def test_deleting_a_scaled_copy_of_m2(monkeypatch, c, conjugate):
    # {diag(x, c x) : x in M_2}, c < 1: the deletion of the c x block, into
    # M_2, is completely contractive, decided by the cb program.  The map is
    # a scaled conjugation, whose Choi block has rank one: its factors
    # certify it, and Dykstra is never called
    monkeypatch.setattr(cb, "_dykstra_feasibility", lambda *args: pytest.fail("Dykstra was called"))
    q = random_unitary(4, np.random.default_rng(int(10 * c))) if conjugate else np.eye(4)
    env = injective_envelope(orthonormalize([q @ _direct_sum(t, c * t) @ q.conj().T for t in M2_UNITS]))
    assert env.blocks.blocks == ((2, 2), (2, 2)) and env.blocks.multiplicities == (1, 1)
    assert env.deleted_blocks == (0,) and env.status == "EXACT"
    assert env.envelope.dim == 4


@pytest.mark.parametrize("name", list(TRO_INPUTS) + list(ENVELOPE_CASES))
def test_block_shapes_match_rank_oracle(name):
    # (a, b, m) of every block against dim p L p = a^2, rank p = a m and
    # dim p W = a b, counted on explicit products
    space = TRO_INPUTS.get(name) or _envelope_case(name, True)
    w = generate_tro(space)
    bs = block_decompose(w)
    assert len(bs.multiplicities) == len(bs.blocks)
    for (a, b), mult, p in zip(bs.blocks, bs.multiplicities, bs.left_projections):
        assert block_shape_by_ranks(w.basis, p) == (a, b, mult), name
    assert sum(a * b for a, b in bs.blocks) == w.dim


MIXED_SCALE_SEED = 3736375586967159258
COMMUTANT_CASES = (
    list(TRO_INPUTS)
    + [f"{name}{mark}" for name in ENVELOPE_CASES for mark in ("", "~conj")]
    + [f"wide-{i}" for i in WIDE_DELETING]
    + ["mixed-scale"]
)


@pytest.mark.parametrize("case", COMMUTANT_CASES)
def test_commutant_and_center_match_the_dense_oracle(case):
    # W = sum of M_(a,b) tensor 1_m has commutant sum of 1 tensor M_m, with
    # one central summand per block; in the whole ambient the kernels of
    # the supports p and q add one full summand each
    if case in TRO_INPUTS:
        space = TRO_INPUTS[case]
    elif case.startswith("wide-"):
        space = WIDE_SAMPLE[int(case[5:])]
    elif case == "mixed-scale":
        space = ex.random_triangular_algebra(4, 4, MIXED_SCALE_SEED).space
    else:
        space = _envelope_case(case.removesuffix("~conj"), case.endswith("~conj"))
    bs = block_decompose(generate_tro(space))
    m, n = space.shape
    kernels = [m - np.linalg.matrix_rank(np.hstack(space.basis), 1e-9),
               n - np.linalg.matrix_rank(np.vstack(space.basis), 1e-9)]
    dim_c, dim_z = commutant_and_center_dims(space.stack)
    assert dim_c == sum(mult**2 for mult in bs.multiplicities) + sum(k**2 for k in kernels)
    assert dim_z == len(bs.blocks) + sum(k > 0 for k in kernels)


def test_commutant_tro_raises_when_the_space_is_not_in_its_tro():
    # supports that miss e22 compress X to span{e11}, whose TRO lacks e22
    space = orthonormalize([unit(3, 1, 1), unit(3, 2, 2)])
    e1 = np.eye(3, 1, dtype=complex)
    with pytest.raises(ArithmeticError, match="does not lie in the TRO"):
        tro._commutant_tro(space, (e1, e1), linalg.DEFAULT_TOL)


def test_degenerate_block_counts_raise():
    # supports of ranks 2 and 2 cannot hold a block of dimension 3
    with pytest.raises(tro.DegenerateDecompositionError):
        tro._block_shape(2, 2, 3)


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


def test_multiplicative_embed_matches_loops(rng):
    # a contraction inside the generated TRO of each small corpus algebra and
    # of a conjugate: the images agree with the loops, and both checks pass
    for name, A in ex.corpus():
        if A.ambient > 4:  # keeps the TRO at dimension 9 or less for the loops
            continue
        q = random_unitary(A.ambient, rng)
        for space in (A.space, orthonormalize([q @ b @ q.conj().T for b in A.basis])):
            w = generate_tro(space)
            z = w.space.from_coeffs(rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim))
            z = 0.9 * z / op_norm(z)
            phi = multiplicative_embed(w, z)
            images, mult, tern = embedding_residuals_by_loops(w.basis, z)
            assert max(mult, tern) <= 1e-12, name
            assert np.abs(phi.image_stack - np.array(images)).max() <= 1e-12, name


@pytest.mark.parametrize("z, failure", [(np.zeros((2, 2), complex), "ternary"), (unit(2, 1, 1), "multiplicative")])
def test_multiplicative_embed_rejects_a_space_that_is_not_a_tro(z, failure):
    # (e12 + e21) e11* (e12 + e21) = e22 leaves span{e11, e12 + e21}; with
    # z = 0 only the ternary identity sees it, with z = e11 the product does
    space = orthonormalize([unit(2, 1, 1), unit(2, 1, 2) + unit(2, 2, 1)])
    _, mult, tern = embedding_residuals_by_loops(space.basis, z)
    assert (mult > 1e-6) == (failure == "multiplicative") and tern > 1e-6
    with pytest.raises(ArithmeticError, match=f"failed to be (a )?{failure}"):
        multiplicative_embed(TROSpace(space, 0.0, None, space), z)


def test_generate_tro_closes_a_mixed_scale_span():
    # a 3-dimensional span in M_4 whose basis mixes O(1) entries with
    # entries near 2e-3: span(X X*) has singular values down to 3.9e-11,
    # below its rank cutoff, so the rank count misses the full corner.  The
    # commutant of the dilations, whose conditions are linear in X, is the
    # scalars behind a gap from 2e-3 to 1e-16, so W is all of p M q
    A = ex.random_triangular_algebra(4, 4, MIXED_SCALE_SEED)
    w = generate_tro(A.space)
    assert w.dim == 9 and w.full_corner and len(w.center) == 1
    assert w.closure_residual <= linalg.DEFAULT_TOL.eq_tol
    assert max_projection_residual(w.space, A.space.stack) <= linalg.DEFAULT_TOL.eq_tol
    assert block_decompose(w).blocks == ((3, 3),)
    assert injective_envelope(A.space).blocks.blocks == ((3, 3),)

