"""Per-layer tracing of opalg from the outside.

`Tracer.install` replaces each traced public function, in every opalg
module namespace that binds it, with a wrapper that records a span (name,
start, end, parent).  Spans stay in memory; `per_layer` folds them into
per-round counts and self times, and `dump` writes them out at the end of
a run.  `uninstall` restores the original bindings.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "linalg": ("orthonormalize", "null_space"),
    "algebra": (
        "verify_algebra", "is_commutative", "is_anticommuting", "is_three_commutative",
        "is_idempotent_algebra", "is_left_faithful", "is_right_faithful", "is_c_faithful",
        "annihilators", "commutator_subspace", "radical", "wedderburn_split",
    ),
    "examples": ("random_triangular_algebra",),
    "tro": ("generate_tro", "linking_algebra", "block_decompose", "support_projections", "injective_envelope"),
    "reversibility": ("solve_pairing", "decide_reversible", "pairing_consistency"),
    "cb": ("is_completely_contractive", "is_complete_isometry", "min_opnorm_affine"),
    "structure": ("triangularize",),
    "report": ("analyze_algebra",),
    "cli": ("run_search",),
}

# algebra functions summed into algebra.predicates
PREDICATES = frozenset(f"algebra.{name}" for name in LAYERS["algebra"][1:])

# how the notes of a FeasibilityOutcome name the exit that settled it
EXITS = {
    "conjugation certificate": "conjugation",
    "amplified norm ratio": "violation",
    "alternating projections": "dykstra",
}

PER_LAYER = [
    "linalg.orthonormalize.calls", "linalg.orthonormalize.self_ms",
    "linalg.null_space.calls", "linalg.null_space.self_ms",
    "algebra.verify_algebra.self_ms", "algebra.predicates.calls", "algebra.predicates.self_ms",
    "examples.random_triangular_algebra.self_ms",
    "tro.generate_tro.self_ms", "tro.linking_algebra.self_ms", "tro.block_decompose.self_ms",
    "tro.support_projections.self_ms", "tro.injective_envelope.self_ms", "tro.injective_envelope.calls",
    "tro.deletion_candidates.tried", "tro.deletion_candidates.accepted",
    "reversibility.solve_pairing.calls", "reversibility.solve_pairing.self_ms",
    "reversibility.decide_reversible.self_ms", "reversibility.pairing_consistency.self_ms",
    "cb.is_completely_contractive.calls", "cb.is_completely_contractive.self_ms",
    "cb.is_complete_isometry.calls",
    *[f"cb.exit.{e}.{k}" for e in ("conjugation", "violation", "dykstra", "undecided") for k in ("count", "ms")],
    "cb.min_opnorm_affine.calls", "cb.min_opnorm_affine.self_ms", "cb.min_opnorm_affine.uncertified",
    "structure.triangularize.calls", "structure.triangularize.self_ms",
    "report.analyze_algebra.self_ms",
    "cli.run_search.cache_hits",
    "src_lines", "trace_overhead_pct",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric == "trace_overhead_pct":
        return "%"
    if metric == "src_lines":
        return "lines"
    return "count"


class Tracer:
    """Spans of the wrapped opalg functions, kept in memory.

    A span is [name, start, end, parent index, result]; the result is kept
    only for the functions whose outcome a counter reads.
    """

    KEEP_RESULT = frozenset({
        "cb.is_completely_contractive", "cb.is_complete_isometry",
        "cb.min_opnorm_affine", "cli.run_search",
    })

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, keep = self.spans, self._stack, name in self.KEEP_RESULT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if keep:
                span[4] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded opalg module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "opalg" or n.startswith("opalg.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"opalg.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._saved.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def per_layer(self, rounds: int) -> dict:
        """Per-round counts and self times of the recorded spans."""
        spans = self.spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ms[parent] += 1000.0 * (end - start)
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        extra = defaultdict(float)
        for i, (name, start, end, parent, result) in enumerate(spans):
            total = 1000.0 * (end - start)
            own = total - child_ms[i]
            key = "algebra.predicates" if name in PREDICATES else name
            calls[key] += 1
            self_ms[key] += own
            if key != name:
                calls[name] += 1
                self_ms[name] += own
            if name == "cb.is_completely_contractive":
                exit_name = next((e for n, e in EXITS.items() if result.notes.startswith(n)), "undecided")
                extra[f"cb.exit.{exit_name}.count"] += 1
                extra[f"cb.exit.{exit_name}.ms"] += total
            elif name == "cb.is_complete_isometry" and parent >= 0 and spans[parent][0] == "tro.injective_envelope":
                extra["tro.deletion_candidates.tried"] += 1
                extra["tro.deletion_candidates.accepted"] += result.status == "FEASIBLE"
            elif name == "cb.min_opnorm_affine":
                extra["cb.min_opnorm_affine.uncertified"] += not result.certified
            elif name == "cli.run_search":
                extra["cli.run_search.cache_hits"] += result["trials"]
            elif name == "reversibility.decide_reversible" and parent >= 0 and spans[parent][0] == "cli.run_search":
                extra["cli.run_search.cache_hits"] -= 1
        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = calls[base]
            elif kind == "self_ms":
                value = self_ms[base]
            else:
                value = extra[metric]
            out[metric] = value / rounds
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start and end in seconds, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, _ in self.spans:
                fh.write(json.dumps([name, round(start, 7), round(end, 7), parent]) + "\n")
