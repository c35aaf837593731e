"""Each checker must FAIL a deliberately wrong answer and PASS the right one."""

from types import SimpleNamespace

import numpy as np
import pytest

import checks
from opalg import examples, report, verify_algebra


def unit(n, i, j):
    m = np.zeros((n, n), complex)
    m[i - 1, j - 1] = 1.0
    return m


def car_pair_mats():
    u = unit(4, 1, 3) + unit(4, 2, 4)
    v = unit(4, 1, 2) - unit(4, 3, 4)
    return [u, v, u @ v]


PQ = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)


def wire(m):
    return [[[z.real, z.imag] for z in row] for row in m]


def test_pairing_elements():
    mats = car_pair_mats()
    assert checks.pairing(mats, PQ, False, 1e-7) == []
    assert checks.pairing(mats, -PQ, True, 1e-7) == []
    perturbed = PQ + 1e-3 * unit(4, 2, 3)
    assert checks.pairing(mats, perturbed, False, 1e-7)
    assert checks.pairing(mats, PQ, True, 1e-7)  # z in place of w
    assert any("operator norm" in f for f in checks.pairing(mats, 1.1 * PQ, False, 1e-7))


def test_family_envelope_uses_input_supports():
    mats = [np.array(b) for b in examples.anticommuting_family(1).basis]
    p, q = checks.supports(mats)
    assert np.allclose(p, np.diag([1, 1, 1, 0])) and np.allclose(q, np.diag([0, 1, 1, 1]))
    pq = p @ q
    assert checks.family_envelope(mats, {"z": wire(pq), "w": wire(-pq)}) == []
    assert checks.family_envelope(mats, {"z": wire(pq), "w": wire(pq)})
    assert checks.family_envelope(mats, {"z": wire(pq + 1e-4 * np.eye(4)), "w": wire(-pq)})


@pytest.fixture(scope="module")
def car_report():
    mats = car_pair_mats()
    return mats, report.analyze_algebra(verify_algebra(mats)).to_dict()


def test_analysis_passes_right_report(car_report):
    mats, rep = car_report
    assert checks.analysis(mats, rep) == ([], set())


def test_analysis_catches_wrong_block_shape(car_report):
    mats, rep = car_report
    wrong = dict(rep, envelope=dict(rep["envelope"], dims=[[2, 2]]))
    failures, _ = checks.analysis(mats, wrong)
    assert any("envelope blocks" in f for f in failures)


def test_analysis_catches_perturbed_z(car_report):
    mats, rep = car_report
    z = checks.from_wire(rep["z"]) + 1e-4 * unit(4, 2, 2)
    failures, _ = checks.analysis(mats, dict(rep, z=wire(z)))
    assert any(f.startswith("z:") for f in failures)


def test_analysis_requires_pairing_elements_of_a_reversible_algebra(car_report):
    mats, rep = car_report
    for name in ("z", "w"):
        failures, _ = checks.analysis(mats, dict(rep, **{name: None}))
        assert failures == [f"reversible but no {name} reported"]
    not_reversible = dict(rep, z=None, w=None, verdicts=dict(rep["verdicts"], reversible="NO"),
                          predicates=dict(rep["predicates"], anticommuting=False))
    assert checks.analysis(mats, not_reversible) == ([], set())


def test_analysis_catches_theorem_violations(car_report):
    mats, rep = car_report
    flipped = dict(rep, verdicts=dict(rep["verdicts"], reversible="NO"))
    assert any("anticommuting" in f for f in checks.analysis(mats, flipped)[0])
    faithful = dict(rep, predicates=dict(rep["predicates"], left_faithful=True))
    failures, bad = checks.analysis(mats, faithful)
    assert failures and bad == {"left_faithful"}
    not_three = dict(rep, predicates=dict(rep["predicates"], three_commutative=False))
    assert any("3-commutative" in f for f in checks.analysis(mats, not_three)[0])


def test_nilpotent_algebra_is_not_idempotent():
    mats = [unit(2, 1, 2)]
    rep = {"predicates": {"idempotent": True, "three_commutative": True, "anticommuting": True,
                          "commutative": True},
           "verdicts": {"reversible": "YES"}, "tolerances": {"sdp_tol": 1e-7},
           "z": wire(np.zeros((2, 2))), "w": wire(np.zeros((2, 2)))}
    failures, bad = checks.analysis(mats, rep)
    assert failures and bad == {"idempotent"}
    rep["predicates"]["idempotent"] = False
    assert checks.analysis(mats, rep) == ([], set())


def test_invariance_catches_flipped_verdict(car_report):
    _, rep = car_report
    assert checks.invariance(rep, rep) == []
    flipped = dict(rep, verdicts=dict(rep["verdicts"], symmetric="UNDECIDED"))
    assert checks.invariance(flipped, rep)
    flipped = dict(rep, predicates=dict(rep["predicates"], idempotent=True))
    assert checks.invariance(flipped, rep)
    assert checks.invariance(flipped, rep, skip={"idempotent"}) == []


def test_violation_witness_ratio():
    swap = sum(np.kron(unit(2, i, j), unit(2, j, i)) for i in (1, 2) for j in (1, 2))
    assert checks.violation(swap, (2, 2), lambda b: b.T, 2.0) == []
    assert checks.violation(np.eye(4, dtype=complex), (2, 2), lambda b: b.T, 2.0)
    assert checks.violation(swap, (2, 2), lambda b: b.T, 1.5)  # above the cb norm
    assert checks.violation(np.eye(3), (2, 2), lambda b: b.T, 2.0)


def test_psd_witness():
    v = np.arange(4.0).reshape(2, 2) + 1j
    good = v @ v.conj().T
    assert checks.psd_witness(good, 2, 1e-7) == []
    assert checks.psd_witness(np.diag([1.0, -1e-3]), 2, 1e-7)
    assert checks.psd_witness(good, 3, 1e-7)
    assert checks.psd_witness(None, 2, 1e-7)


def test_decision_status():
    assert checks.decision(SimpleNamespace(status="FEASIBLE", notes=""), "FEASIBLE") == []
    assert checks.decision(SimpleNamespace(status="UNDECIDED", notes=""), "INFEASIBLE")


def test_min_norm_known_answers():
    particular = np.diag([2.0, 0.0]).astype(complex)
    directions = [np.eye(2, dtype=complex) / np.sqrt(2)]
    best = np.diag([1.0, -1.0]).astype(complex)
    right = SimpleNamespace(argmin=best, min_norm=1.0)
    assert checks.min_norm(right, particular, directions, 1.0) == []
    assert checks.min_norm(SimpleNamespace(argmin=particular, min_norm=2.0), particular, directions, 1.0)
    outside = SimpleNamespace(argmin=np.diag([1.0, 1.0]).astype(complex), min_norm=1.0)
    assert checks.min_norm(outside, particular, directions, 1.0)
    assert abs(checks.grid_min_opnorm(particular, directions) - 1.0) < 1e-3


def test_grid_search_two_directions():
    rng = np.random.default_rng(0)
    particular = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    d1 = rng.standard_normal((3, 3))
    d1 /= np.linalg.norm(d1)
    d2 = 1j * d1  # real-orthonormal to d1
    grid = checks.grid_min_opnorm(particular, [d1, d2])
    ts = np.linspace(-3, 3, 301)
    brute = min(np.linalg.norm(particular + a * d1 + b * d2, 2) for a in ts[::10] for b in ts[::10])
    assert grid <= brute + 1e-9


def test_search_summary():
    good = {"trials": 3, "noncommutative_reversible": [], "signatures": {
        "dim=1 commutative=True anticommuting=True three_commutative=True reversible=YES": 2,
        "dim=3 commutative=False anticommuting=False three_commutative=True reversible=NO": 1}}
    assert checks.search_summary(good, 3) == 0
    bad = dict(good, signatures={
        "dim=1 commutative=True anticommuting=True three_commutative=True reversible=YES": 2,
        "dim=3 commutative=False anticommuting=False three_commutative=True reversible=YES": 1})
    assert checks.search_summary(bad, 3) == 1
    assert checks.search_summary(good, 4) == 4
    assert checks.search_summary(dict(good, noncommutative_reversible=[{"seed": 1}]), 3) == 3
