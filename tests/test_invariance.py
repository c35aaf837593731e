"""A verdict depends on the algebra, not on how it is presented.

Every corpus entry is analyzed as given and in five other presentations: a
unitary conjugate, a complex change of basis, a reordering with each matrix
rescaled by 10^U(-3, 3), the change of basis at scale 1e-6 followed by the
conjugation, and basis matrix k of d scaled by 10^(-12 k / (d - 1)), a
spread of scales wider than 1 / eq_tol.  The answers must not move, the
envelope's `full_corner` flag among them.  A block-diagonal direct sum of
two corpus algebras must combine the answers of its summands.
"""

import functools
import itertools

import numpy as np
import pytest

from opalg import examples as ex
from opalg.algebra import verify_algebra
from opalg.linalg import random_unitary
from opalg.report import analyze_algebra


def presentations(stack, rng):
    d, n = stack.shape[0], stack.shape[1]
    u = random_unitary(n, rng)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    mixed = np.tensordot(g, stack, 1)
    return {
        "conjugate": u @ stack @ u.conj().T,
        "change-of-basis": mixed,
        "reorder-rescale": stack[rng.permutation(d)] * 10.0 ** rng.uniform(-3, 3, (d, 1, 1)),
        "all-at-1e-6": u @ (1e-6 * mixed) @ u.conj().T,
        "spread-1e12": stack * 10.0 ** (-12.0 * np.arange(d) / max(d - 1, 1))[:, None, None],
    }


def answers(A):
    """The report fields that depend on the algebra alone: the symmetric
    verdict among them, but not its symmetry_residual, the best ratio of a
    randomized search."""
    rep = analyze_algebra(A).to_dict()
    cert = rep["certificates"]
    return {
        "predicates": rep["predicates"],
        "verdicts": rep["verdicts"],
        "envelope": rep["envelope"],
        "pairings": [cert[k]["status"] for k in ("pairing_product", "pairing_reversed")],
        "wedderburn": cert.get("wedderburn"),
    }


@pytest.mark.parametrize("name", [name for name, _ in ex.corpus()])
def test_answers_do_not_depend_on_the_presentation(name):
    A = dict(ex.corpus())[name]
    expected = answers(A)
    # the envelope is all of p M q exactly when it keeps one block of multiplicity one
    env = expected["envelope"]
    kept = [k for k in range(len(env["dims"])) if k not in env["deleted_blocks"]]
    assert env["full_corner"] == (len(kept) == 1 and env["multiplicities"][kept[0]] == 1)
    for seed in (0, 1):
        for label, mats in presentations(A.space.stack, np.random.default_rng(seed)).items():
            assert answers(verify_algebra(list(mats))) == expected, (label, seed)


CORPUS = dict(ex.corpus())
SMALL = [name for name, A in CORPUS.items() if A.ambient <= 4]
PAIRS = list(itertools.combinations_with_replacement(SMALL, 2))
SUM_PAIRS = [PAIRS[k] for k in sorted(np.random.default_rng(0).choice(len(PAIRS), 30, replace=False))]


@functools.cache
def sum_report(*names):
    """The report of the block-diagonal direct sum of the named corpus algebras."""
    stacks = [CORPUS[name].space.stack for name in names]
    n = sum(s.shape[1] for s in stacks)
    mats, at = [], 0
    for s in stacks:
        for b in s:
            m = np.zeros((n, n), complex)
            m[at : at + len(b), at : at + len(b)] = b
            mats.append(m)
        at += s.shape[1]
    return analyze_algebra(verify_algebra(mats), skip={"sdp", "triangularize"}).to_dict()


@pytest.mark.parametrize("left,right", SUM_PAIRS, ids=["+".join(p) for p in SUM_PAIRS])
def test_direct_sums_combine_their_summands(left, right):
    a, b, s = sum_report(left), sum_report(right), sum_report(left, right)
    for key in ("commutative", "anticommuting", "three_commutative"):
        assert s["predicates"][key] == (a["predicates"][key] and b["predicates"][key]), key
    reversible = [rep["verdicts"]["reversible"] == "YES" for rep in (a, b, s)]
    assert reversible[2] == (reversible[0] and reversible[1])
    assert s["predicates"]["radical_dim"] == a["predicates"]["radical_dim"] + b["predicates"]["radical_dim"]
    assert s["envelope"]["dimension"] == a["envelope"]["dimension"] + b["envelope"]["dimension"]
    if not a["envelope"]["deleted_blocks"] and not b["envelope"]["deleted_blocks"]:

        def blocks(rep):
            return sorted(zip(map(tuple, rep["envelope"]["dims"]), rep["envelope"]["multiplicities"]))

        assert blocks(s) == sorted(blocks(a) + blocks(b))
        assert not s["envelope"]["deleted_blocks"]
