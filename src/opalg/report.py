"""Full predicate battery over one algebra, and JSON (de)serialization.

The wire format for a matrix is a list of rows, each entry a two-element
[real, imag] pair; an input file is {"ambient": n, "matrices": [...]}.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from . import cb, reversibility, structure, tro
from .linalg import ToleranceConfig, as_matrix

__all__ = [
    "AnalysisReport",
    "analyze_algebra",
    "matrix_to_wire",
    "matrix_from_wire",
    "parse_input",
]


def matrix_to_wire(m) -> list:
    m = as_matrix(m)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_wire(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a nonempty list of rows")
    out = []
    for row in data:
        if not isinstance(row, list):
            raise ValueError("matrix rows must be lists")
        line = []
        for entry in row:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise ValueError("matrix entries must be [real, imag] pairs")
            if not all(np.isfinite(x) for x in entry):
                raise ValueError("matrix entries must be finite")
            line.append(complex(entry[0], entry[1]))
        out.append(line)
    m = np.array(out, dtype=complex)
    if rows is not None and m.shape != (rows, cols if cols is not None else rows):
        raise ValueError(f"matrix has shape {m.shape}, expected ({rows}, {cols or rows})")
    return m


def parse_input(payload) -> list:
    """Validate {"ambient": n, "matrices": [...]} and return the matrices."""
    if not isinstance(payload, dict):
        raise ValueError("input must be a JSON object")
    n = payload.get("ambient")
    if not isinstance(n, int) or n < 1:
        raise ValueError("'ambient' must be a positive integer")
    mats = payload.get("matrices")
    if not isinstance(mats, list) or not mats:
        raise ValueError("'matrices' must be a nonempty list")
    return [matrix_from_wire(m, n, n) for m in mats]


@dataclass
class AnalysisReport:
    predicates: dict = field(default_factory=dict)
    certificates: dict = field(default_factory=dict)
    envelope: dict = field(default_factory=dict)
    z: list | None = None
    w: list | None = None
    verdicts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "predicates": self.predicates,
            "certificates": self.certificates,
            "envelope": self.envelope,
            "z": self.z,
            "w": self.w,
            "verdicts": self.verdicts,
            "tolerances": self.tolerances,
            "timings_ms": self.timings_ms,
            "warnings": self.warnings,
        }


def _pairing_dict(sol: reversibility.PairingSolution | None) -> dict | None:
    if sol is None:
        return None
    return {
        "status": sol.status,
        "residual": float(sol.residual) if np.isfinite(sol.residual) else None,
        "op_norm": float(sol.op_norm) if np.isfinite(sol.op_norm) else None,
        "op_norm_lower": float(sol.op_norm_lower) if np.isfinite(sol.op_norm_lower) else None,
        "affine_dim": sol.affine_dim,
        "inconsistent": sol.inconsistent,
    }


def analyze_algebra(
    A: alg.MatrixAlgebra,
    tol: ToleranceConfig | None = None,
    skip: set | None = None,
    seed: int = 0,
) -> AnalysisReport:
    """Run the whole predicate battery; `skip` may hold sdp, envelope, triangularize."""
    tol = tol or A.tol
    skip = skip or set()
    report = AnalysisReport()
    report.tolerances = {
        "eq_tol": tol.eq_tol,
        "sdp_tol": tol.sdp_tol,
        "max_iter": tol.max_iter,
    }
    timer = time.perf_counter

    t0 = timer()
    report.predicates = {
        "dimension": A.dim,
        "ambient": A.ambient,
        "commutative": alg.is_commutative(A, tol),
        "anticommuting": alg.is_anticommuting(A, tol),
        "three_commutative": alg.is_three_commutative(A, tol),
        "idempotent": alg.is_idempotent_algebra(A, tol),
        "left_faithful": alg.is_left_faithful(A, tol),
        "right_faithful": alg.is_right_faithful(A, tol),
        "c_faithful": alg.is_c_faithful(A, tol),
    }
    report.certificates["closure_residual"] = A.closure_residual
    rad = alg.radical(A, tol)
    report.predicates["radical_dim"] = rad.dim
    if report.predicates["three_commutative"]:
        split = alg.wedderburn_split(A, tol)
        report.certificates["wedderburn"] = {
            "radical_only": split.radical_only,
            "unital_dim": split.unital_part.dim if split.unital_part else 0,
            "nilpotent_dim": split.nilpotent_part.dim if split.nilpotent_part else 0,
        }
    report.timings_ms["predicates"] = 1000 * (timer() - t0)

    env = None
    if "envelope" not in skip:
        t0 = timer()
        env = tro.injective_envelope(A.space, tol, seed)
        report.envelope = {
            "status": env.status,
            "dims": [list(b) for b in env.blocks.blocks],
            "multiplicities": list(env.blocks.multiplicities),
            "deleted_blocks": list(env.deleted_blocks),
            "dimension": env.envelope.dim,
            "full_corner": env.envelope.full_corner,
        }
        verdict = reversibility.decide_reversible(A, tol, seed, envelope=env)
        report.verdicts["reversible"] = verdict.reversible
        z_sol, w_sol = verdict.pairings.product, verdict.pairings.reversed
        report.certificates["pairing_product"] = _pairing_dict(z_sol)
        if z_sol.element is not None:
            report.z = matrix_to_wire(z_sol.element)
        report.certificates["pairing_reversed"] = _pairing_dict(w_sol)
        if w_sol.element is not None:
            report.w = matrix_to_wire(w_sol.element)
        if verdict.notes:
            report.certificates["reversibility_notes"] = list(verdict.notes)
        if z_sol.element is not None and w_sol.element is not None:
            consistency = reversibility.pairing_consistency(A, z_sol.element, w_sol.element, tol)
            report.certificates["pairing_consistency"] = {
                "z_equals_w": consistency.z_equals_w,
                "consistent_with_commutativity": consistency.consistent,
                "derived_commutative": all(consistency.derived_commutative.values()),
                "interchange_ok": consistency.interchange_ok,
            }
        report.timings_ms["envelope"] = 1000 * (timer() - t0)
    else:
        report.verdicts["reversible"] = "SKIPPED"
        if alg.is_anticommuting(A, tol) or alg.is_commutative(A, tol):
            report.verdicts["reversible"] = "YES"

    if "sdp" not in skip:
        t0 = timer()
        sym = cb.is_symmetric_space(A.space, tol, seed)
        report.verdicts["symmetric"] = sym.status
        report.certificates["symmetry_residual"] = float(sym.residual)
        report.certificates["symmetry_iterations"] = sym.iterations
        report.timings_ms["symmetry"] = 1000 * (timer() - t0)
    else:
        report.verdicts["symmetric"] = "SKIPPED"

    if "triangularize" not in skip:
        t0 = timer()
        tri = structure.triangularize(A, tol)
        if tri is None:
            report.verdicts["triangularizable"] = False
        else:
            report.verdicts["triangularizable"] = True
            report.certificates["triangularization_residual"] = tri.residual
        report.timings_ms["triangularize"] = 1000 * (timer() - t0)
    else:
        report.verdicts["triangularizable"] = "SKIPPED"

    for key in ("reversible", "symmetric"):
        if report.verdicts.get(key) == "UNDECIDED":
            report.warnings.append(f"{key} verdict undecided within the iteration budget")
    return report
