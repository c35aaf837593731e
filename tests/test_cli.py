import json

import numpy as np
import pytest

from opalg import cli
from opalg import examples as ex
from opalg.algebra import verify_algebra
from opalg.cli import main, run_search
from opalg.linalg import ToleranceConfig, orthonormalize
from opalg.report import matrix_from_wire, matrix_to_wire, parse_input
from opalg.reversibility import solve_pairing
from opalg.tro import injective_envelope

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
    expected = solve_pairing(A, injective_envelope(A.space).envelope).op_norm_lower
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
