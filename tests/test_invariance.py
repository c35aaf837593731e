"""A verdict depends on the algebra, not on how it is presented.

Every corpus entry is analyzed as given and in four other presentations: a
unitary conjugate, a complex change of basis, a reordering with each matrix
rescaled by 10^U(-3, 3), and the change of basis at scale 1e-6 followed by
the conjugation.  The answers must not move, the envelope's `full_corner`
flag among them.
"""

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
    }


def answers(A):
    """The report fields that depend on the algebra alone."""
    rep = analyze_algebra(A, skip={"sdp"}).to_dict()
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
