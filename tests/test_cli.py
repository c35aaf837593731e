import json
import tracemalloc

import numpy as np
import pytest

from opalg import cli
from opalg import examples as ex
from opalg import report, reversibility
from opalg.algebra import verify_algebra
from opalg.cli import main, run_search
from opalg.linalg import Subspace, ToleranceConfig, orthonormalize
from opalg.report import matrix_from_wire, matrix_to_wire, parse_input
from opalg.reversibility import solve_pairing
from opalg.tro import injective_envelope

from . import oracles
from .oracles import predicates_by_products

unit = ex.matrix_unit


def write_input(path, mats, ambient):
    payload = {"ambient": ambient, "matrices": [matrix_to_wire(m) for m in mats]}
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def car_pair_file(tmp_path):
    u = unit(4, 1, 3) + unit(4, 2, 4)
    v = unit(4, 1, 2) - unit(4, 3, 4)
    return write_input(tmp_path / "car_pair.json", [u, v, u @ v], 4)


def test_wire_roundtrip(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_wire(matrix_to_wire(m))
    assert np.allclose(back, m)


def test_parse_input_validation():
    with pytest.raises(ValueError):
        parse_input([])
    with pytest.raises(ValueError):
        parse_input({"ambient": 0, "matrices": []})
    with pytest.raises(ValueError):
        parse_input({"ambient": 2, "matrices": [[[[1, 0], [0, 0]]]]})  # wrong shape
    with pytest.raises(ValueError):
        parse_input({"ambient": 1, "matrices": [[[[np.inf, 0]]]]})


def test_analyze_car_pair(car_pair_file, capsys):
    code = main(["analyze", car_pair_file])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["verdicts"]["reversible"] == "YES"
    assert report["verdicts"]["symmetric"] == "FEASIBLE"
    assert report["verdicts"]["triangularizable"] is True
    assert report["predicates"]["commutative"] is False
    assert report["predicates"]["anticommuting"] is True
    assert report["predicates"]["three_commutative"] is True
    assert report["envelope"]["status"] == "EXACT"
    assert report["envelope"]["dims"] == [[3, 3]]
    z = matrix_from_wire(report["z"])
    assert np.allclose(z, np.diag([0, 1.0, 1.0, 0]))
    w = matrix_from_wire(report["w"])
    assert np.allclose(w, -np.diag([0, 1.0, 1.0, 0]))
    assert report["tolerances"]["eq_tol"] == 1e-9


def test_analyze_strict_upper(tmp_path, capsys):
    path = write_input(tmp_path / "s3.json", ex.strict_upper(3).basis, 3)
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdicts"]["reversible"] == "NO"


@pytest.mark.parametrize("name", ["strict-upper-3", "car-span-algebra-3"])
def test_analyze_reports_the_norm_bracket(tmp_path, capsys, name):
    # both are NO by an inconsistent reversed system, whose infinite lower
    # bound reads null; the product pairing is a contraction whose bracket
    # closed, so its lower bound sits within sdp_tol below op_norm
    A = dict(ex.corpus())[name]
    path = write_input(tmp_path / "in.json", A.basis, A.ambient)
    assert main(["analyze", path, "--skip", "sdp", "--skip", "triangularize"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts"]["reversible"] == "NO"
    flipped = report["certificates"]["pairing_reversed"]
    assert flipped["inconsistent"] and flipped["op_norm_lower"] is None
    product = report["certificates"]["pairing_product"]
    expected = solve_pairing(A, injective_envelope(A.space)).product.op_norm_lower
    assert product["op_norm_lower"] == pytest.approx(expected, abs=1e-9)
    assert product["op_norm_lower"] <= product["op_norm"] <= product["op_norm_lower"] + 1e-7


def test_analyze_diagonal(tmp_path, capsys):
    path = write_input(tmp_path / "d3.json", [unit(3, i, i) for i in (1, 2, 3)], 3)
    code = main(["analyze", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["predicates"]["commutative"] is True
    assert report["verdicts"]["reversible"] == "YES"
    z = matrix_from_wire(report["z"])
    w = matrix_from_wire(report["w"])
    assert np.allclose(z, w)


def test_analyze_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", str(bad)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"ambient": 2, "matrices": "nope"}))
    assert main(["analyze", str(bad2)]) == 2


def test_analyze_not_an_algebra(tmp_path, capsys):
    path = write_input(tmp_path / "open.json", [unit(2, 1, 2) + unit(2, 2, 1)], 2)
    assert main(["analyze", path]) == 3
    err = capsys.readouterr().err
    assert "not closed" in err


def test_analyze_skip_flags(car_pair_file, capsys):
    code = main(["analyze", car_pair_file, "--skip", "sdp", "--skip", "triangularize"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdicts"]["symmetric"] == "SKIPPED"
    assert report["verdicts"]["triangularizable"] == "SKIPPED"
    assert report["verdicts"]["reversible"] == "YES"


def test_analyze_skip_envelope(tmp_path, capsys):
    path = write_input(tmp_path / "s3.json", ex.strict_upper(3).basis, 3)
    code = main(["analyze", path, "--skip", "envelope"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    # without the envelope no refutation is possible; only fast paths decide
    assert report["verdicts"]["reversible"] == "SKIPPED"
    assert report["envelope"] == {}
    assert report["z"] is None and report["w"] is None


@pytest.mark.parametrize("make", [lambda: ex.diagonal_algebra(2), ex.car_pair], ids=["diagonal-2", "car-pair"])
def test_analyze_skip_envelope_keeps_the_fast_yes(tmp_path, capsys, make):
    # a commutative or anticommuting algebra is reversible without the
    # envelope, but no pairing element is reported
    A = make()
    code = main(["analyze", write_input(tmp_path / "a.json", A.basis, A.ambient), "--skip", "envelope"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verdicts"]["reversible"] == "YES"
    assert report["z"] is None and report["w"] is None


def test_analyze_deterministic(car_pair_file, capsys):
    main(["analyze", car_pair_file, "--seed", "5"])
    first = json.loads(capsys.readouterr().out)
    main(["analyze", car_pair_file, "--seed", "5"])
    second = json.loads(capsys.readouterr().out)
    first.pop("timings_ms")
    second.pop("timings_ms")
    assert first == second


def test_reproduce_single_group(capsys):
    code = main(["reproduce", "--only", "wedderburn"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "wedderburn:upper-m2-radical" in out


@pytest.mark.parametrize("group", sorted(cli._GROUPS))
def test_reproduce_group_prints_only_its_rows(capsys, group):
    assert main(["reproduce", "--only", group]) == 0
    *rows, total = capsys.readouterr().out.splitlines()
    assert rows and all(row.startswith(f"{group}:") for row in rows)
    assert total == f"{len(rows)} checks, 0 failures"


def test_reproduce_labels_are_unique(capsys):
    assert main(["reproduce"]) == 0
    labels = [row.split()[0] for row in capsys.readouterr().out.splitlines()[:-1]]
    assert len(labels) == len(set(labels))
    assert {f"{g}:{key}" for g, key, *_ in cli._ROWS} <= set(labels)


def test_reproduce_analyzes_only_the_inputs_its_rows_read(monkeypatch, capsys):
    # each input is analyzed once, and sdp runs only where a row reads it
    seen = []
    analyze = cli.analyze_algebra
    monkeypatch.setattr(
        cli, "analyze_algebra",
        lambda A, tol, skip, seed: seen.append((cli._subspace_key(A.space), skip)) or analyze(A, tol, skip, seed),
    )
    assert main(["reproduce", "--only", "strict-upper"]) == 0
    assert seen == [(cli._subspace_key(ex.strict_upper(n).space), {"sdp"}) for n in (3, 4)]
    seen.clear()
    assert main(["reproduce", "--only", "car-pair"]) == 0
    assert seen == [(cli._subspace_key(ex.car_pair().space), set())]


def test_reproduce_fails_a_row_that_does_not_hold(monkeypatch, capsys):
    wrong = (
        ("strict-upper", "m3-reversible", "strict-upper-3", "verdicts.reversible", "YES"),
        ("strict-upper", "m3-z-zero", "strict-upper-3", "z", np.zeros((3, 3), complex)),
        ("strict-upper", "m3-candidate", "strict-upper-3", "envelope", {"dims": [[2, 2]], "status": "CANDIDATE"}),
    )
    monkeypatch.setattr(cli, "_ROWS", cli._ROWS + wrong)
    assert main(["reproduce", "--only", "strict-upper"]) == 1
    failed = [row.split()[0] for row in capsys.readouterr().out.splitlines() if "FAIL" in row]
    assert failed == [f"strict-upper:{key}" for _, key, *_ in wrong]


def test_search_small(capsys):
    code = main(["search", "--ambient", "3", "--trials", "40", "--seed", "7"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["trials"] == 40
    assert out["noncommutative_reversible"] == []
    assert sum(out["signatures"].values()) == 40


def test_search_zero_trials():
    summary = run_search(ambient=3, trials=0, seed=0, max_dim=3, tol=ToleranceConfig())
    assert summary["signatures"] == {}
    assert summary["noncommutative_reversible"] == []


def test_search_flags_injected_basis():
    # a sample that contains the known noncommutative reversible algebra in
    # M_4 must surface it as a hit
    summary = run_search(
        ambient=4, trials=20, seed=3, max_dim=4, tol=ToleranceConfig(),
        include=[ex.car_pair()],
    )
    assert len(summary["noncommutative_reversible"]) >= 1
    basis = [matrix_from_wire(m) for m in summary["noncommutative_reversible"][0]["basis"]]
    span = np.stack([b.ravel() for b in basis])
    target = (unit(4, 1, 3) + unit(4, 2, 4)).ravel()
    coeff, *_ = np.linalg.lstsq(span.T, target, rcond=None)
    assert np.linalg.norm(span.T @ coeff - target) <= 1e-9


def test_search_cache_keeps_the_summary_and_runs_predicates_once(monkeypatch):
    # repeated subspaces (the same algebra twice, and once more in another
    # basis) are decided and classified once; the summary is that of a run
    # with no cache
    A = ex.car_pair()
    again = ex.car_pair()
    rebased = orthonormalize([A.basis[0] + A.basis[1], A.basis[1] - A.basis[2], A.basis[2]])
    include = [A, ex.strict_upper(4), again, verify_algebra(rebased), ex.strict_upper(4)]
    kwargs = dict(ambient=4, trials=6, seed=5, max_dim=3, tol=ToleranceConfig(), include=include)
    calls, keys = [], []
    for name in ("is_commutative", "is_anticommuting", "is_three_commutative"):
        original = getattr(cli.alg, name)
        monkeypatch.setattr(cli.alg, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    key = cli._subspace_key
    monkeypatch.setattr(cli, "_subspace_key", lambda B: keys.append(key(B)) or keys[-1])
    cached = run_search(**kwargs)
    assert len(keys) == len(include) + 6 and len(set(keys)) < len(keys)
    assert calls.count("is_commutative") == calls.count("is_three_commutative") == len(set(keys))
    fresh = iter(range(10**6))
    monkeypatch.setattr(cli, "_subspace_key", lambda B: next(fresh))
    assert run_search(**kwargs) == cached
    assert len(cached["noncommutative_reversible"]) == 3


def test_search_takes_pair_deviations_once_per_subspace(monkeypatch):
    # the signature asks is_commutative and is_anticommuting; the deviations
    # behind them are taken once per algebra.  The summary is the one whose
    # two predicates come from explicit products of the basis.
    kwargs = dict(ambient=3, trials=60, seed=1, max_dim=3, tol=ToleranceConfig())
    calls, keys = [], []
    deviation = cli.alg._pair_deviation
    monkeypatch.setattr(cli.alg, "_pair_deviation", lambda A, sign: calls.append(A) or deviation(A, sign))
    key = cli._subspace_key
    monkeypatch.setattr(cli, "_subspace_key", lambda B: keys.append(key(B)) or keys[-1])
    summary = run_search(**kwargs)
    assert 0 < len(calls) <= 2 * len(set(keys))
    monkeypatch.undo()
    for name in ("commutative", "anticommuting"):
        oracle = lambda A, tol=None, _n=name: predicates_by_products(A.basis)[_n]  # noqa: E731
        monkeypatch.setattr(cli.alg, f"is_{name}", oracle)
    assert run_search(**kwargs) == summary


def _projector(A):
    stack = A.space.stack.reshape(A.dim, -1)
    return stack.conj().T @ stack


def test_subspace_key_ignores_the_basis(tol):
    # every corpus algebra keeps its key under unitary re-mixings of its
    # orthonormal basis
    rng = np.random.default_rng(7)
    for name, A in ex.corpus(tol):
        key = cli._subspace_key(A.space)
        for _ in range(20):
            z = rng.standard_normal((2, A.dim, A.dim))
            u, _ = np.linalg.qr(z[0] + 1j * z[1])
            mixed = Subspace(*A.space.shape, tuple(np.tensordot(u, A.space.stack, 1)))
            assert cli._subspace_key(verify_algebra(mixed, tol).space) == key, name


def test_subspace_key_of_draws_that_close_onto_strict_upper_3(tol):
    # two random draws close onto the same span in different bases; one of
    # them has a projector that rounds to -0.0 where the standard basis has 0.0
    draws = [ex.random_triangular_algebra(3, 3, s, tol) for s in (0, 1)]
    standard = ex.strict_upper(3, tol)
    assert all(A.dim == 3 for A in draws)
    assert not np.allclose(draws[0].space.stack, draws[1].space.stack)
    assert np.signbit(np.round(_projector(draws[0]), 8).view(float)).any()
    assert not np.signbit(np.round(_projector(standard), 8).view(float)).any()
    assert {cli._subspace_key(A.space) for A in [*draws, standard]} == {cli._subspace_key(standard.space)}


def test_subspace_key_separates_spans(tol):
    spans = [[unit(3, 1, 2)], [unit(3, 1, 3)], [unit(3, 1, 2), unit(3, 1, 3)]]
    assert len({cli._subspace_key(verify_algebra(s, tol).space) for s in spans}) == 3


def test_search_decides_each_distinct_subspace_once(monkeypatch):
    # strict-upper-3 is the one 3-dimensional subspace in reach, and no two
    # decided algebras share a span
    decided, keys = [], []
    decide = reversibility.decide_reversible
    monkeypatch.setattr(reversibility, "decide_reversible", lambda A, *a: decided.append(A) or decide(A, *a))
    key = cli._subspace_key
    monkeypatch.setattr(cli, "_subspace_key", lambda B: keys.append(key(B)) or keys[-1])
    run_search(ambient=3, trials=200, seed=1, max_dim=3, tol=ToleranceConfig())
    assert len(keys) == 200 and len(decided) == len(set(keys))
    assert sum(A.dim == 3 for A in decided) == 1
    projectors = [_projector(A) for A in decided]
    assert not any(np.allclose(p, q, atol=1e-6) for i, p in enumerate(projectors) for q in projectors[:i])


@pytest.mark.parametrize("ambient, trials", [(3, 500), (4, 200)])
def test_search_spans_are_the_single_seed_spans(monkeypatch, ambient, trials):
    # each trial's span, closed in a batch, has the key of its seed's span
    # closed on its own
    keys = []
    key = cli._subspace_key
    monkeypatch.setattr(cli, "_subspace_key", lambda space: keys.append(key(space)) or keys[-1])
    run_search(ambient=ambient, trials=trials, seed=4, max_dim=ambient, tol=ToleranceConfig())
    seeds = np.random.default_rng(4).integers(0, 2**63 - 1, size=trials)
    assert keys == [key(oracles.random_triangular_algebra(ambient, ambient, int(s)).space) for s in seeds]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_signatures_do_not_depend_on_the_chunk(monkeypatch, seed):
    kwargs = dict(ambient=3, trials=1000, seed=seed, max_dim=3, tol=ToleranceConfig())
    want = oracles.search_signatures(**kwargs)
    summaries = []
    for chunk in (7, 64):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        summaries.append(run_search(**kwargs))
    assert summaries[0] == summaries[1]
    assert summaries[0]["signatures"] == want and summaries[0]["noncommutative_reversible"] == []


def test_search_memory_does_not_grow_with_the_trials():
    # spans are sampled and decided a chunk at a time, and the cache keeps
    # a short digest per distinct span
    run_search(ambient=3, trials=20, seed=0, max_dim=3, tol=ToleranceConfig())
    peaks = []
    for trials in (500, 4000):
        tracemalloc.start()
        try:
            run_search(ambient=3, trials=trials, seed=1, max_dim=3, tol=ToleranceConfig())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_pairwise_products_take_no_einsum(monkeypatch, car_pair):
    # product stacks, the pairing system and its residual, the consistency
    # identities and the reversal certificate run on matrix products; the
    # einsum calls left contract the structure tensor or combine a basis
    # with coefficients (einsum product stacks took 61 and 256 here).  The
    # radical is taken once per algebra and tolerance (it was 27 when
    # wedderburn_split took it a second time; 24 when triangularize tested
    # 3-commutativity again for a warning).  The search decides each span
    # once, whatever its basis.  A full corner's block form reads no center
    # (23 and 28 when every block form combined the center's coefficients).
    # Symmetry checks the transpose alone (22 when it also formed and
    # certified the inverse).  Each faithfulness test takes its own side's
    # kernel (20 when each built both annihilator spans).  Every verdict is
    # read from one pairing solve, anticommuting algebras included: the
    # analysis solves once (a second solve would add 4), and the search
    # solves the anticommuting spans it decides too (21 when -1 settled them)
    original, calls = np.einsum, []
    monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or original(*a, **k))
    report.analyze_algebra(car_pair)
    assert len(calls) == 14
    calls.clear()
    run_search(ambient=3, trials=20, seed=1, max_dim=3, tol=ToleranceConfig())
    assert len(calls) == 25
