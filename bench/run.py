"""Run one benchmark workload against the opalg sources of this checkout.

    python3 bench/run.py --workload corpus-analyze --seed 1 --seconds 30 --trace 0

The load is a closed loop in this one process: each operation starts when
the previous one has returned, and the run repeats whole rounds of the
workload's operations while the next round, taking as long as the last,
still ends within --seconds (one round at least).  Every operation's
output is checked (bench/checks.py) and printed as PASS or FAIL.  The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`, the end-to-end metrics with --trace 0 and the
per-layer metrics of a traced run with --trace 1.  The line before it
holds the run's details: seed, BLAS threads, machine and the
workload's own figures.

Times are wall-clock seconds of the calls into opalg; checking their
output is not timed.  The gated times are relative: the host's speed
drifts by tens of percent in phases of seconds to a minute, so a fixed
reference computation that does not touch opalg runs before the first
operation and after each one, and every operation's time is divided by
the median of the reference times taken on either side of it and, every
half second, inside it.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# the modules `opalg analyze` loads, numpy included
IMPORT_PROBE = "import time; t = time.perf_counter(); import opalg.cli; print(time.perf_counter() - t)"


class Reference:
    """A fixed computation like opalg's, whose time tracks the host's speed.

    Dense complex factorizations at the sizes opalg works at: SVD,
    Hermitian eigendecomposition and QR of 4x4 to 24x24 matrices, and the
    SVD of a 64x64 one.  `seconds` is the median of REPEATS timings of
    about 2 ms.
    """

    REPEATS = 5

    def __init__(self, np):
        self.np = np
        rng = np.random.default_rng(0)
        draw = lambda n: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        self.square = [draw(n) for n in (4, 8, 16, 24)]
        self.large = draw(64)

    def _once(self) -> float:
        la = self.np.linalg
        start = time.perf_counter()
        for a in self.square:
            la.svd(a)
            la.eigh(a + a.conj().T)
            la.qr(a)
        la.svd(self.large)
        return time.perf_counter() - start

    def seconds(self) -> float:
        return statistics.median(self._once() for _ in range(self.REPEATS))


class Timed:
    """Times one operation and samples the reference inside it.

    While the body runs, a SIGALRM timer takes a reference time every
    INTERVAL seconds.  The handler runs between the body's bytecodes in
    this thread, so nothing runs beside opalg, and its own time is taken
    out of `seconds`.  A long operation is thus measured against the
    host's speed while it ran, not only at its ends.
    """

    INTERVAL = 0.5

    def __init__(self, ref: Reference, sample: bool = True):
        self.ref, self.sample = ref, sample
        self.samples, self.paused = [], 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(self.ref.seconds())
        self.paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL)

    def __enter__(self):
        if self.sample:
            self.old = signal.signal(signal.SIGALRM, self._handler)
            signal.setitimer(signal.ITIMER_REAL, self.INTERVAL)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)
        self.seconds = time.perf_counter() - self.start - self.paused
        return False


def tail(values):
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 40:
        return None
    return sorted(values)[len(values) - 11]


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpus": len(os.sched_getaffinity(0)),
    }


def src_lines(src: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(src.rglob("*.py")))


def import_seconds(src: Path) -> float:
    """Median time of IMPORT_PROBE's import in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "opalg" / "__init__.py").is_file():
        print(f"error: no opalg sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import opalg

    if Path(opalg.__file__).resolve().parent != (src / "opalg").resolve():
        print(f"error: imported opalg from {opalg.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer, unit_of

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    # set-up: the import of opalg, input generation and one warm-up
    # operation, each the median of several
    import_s = import_seconds(src)
    setups = []
    for _ in range(SETUP_REPEATS):
        w = workloads.WORKLOADS[args.workload]()
        start = time.perf_counter()
        w.setup(args.seed)
        w.warmup().run()
        setups.append(time.perf_counter() - start)
    w.prepare()
    ref = Reference(np)
    for _ in range(3):
        ref.seconds()

    # timed rounds; with --trace 1, round 0 is untraced and the rest traced
    tracer = Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    calls = []  # (round, op name, operations, seconds, reference seconds while it ran)
    ref_before = ref.seconds()
    round_traced = []
    attempted = failed = 0
    unexpected = []
    r = 0
    last = 0.0  # duration of the last round
    while r == 0 or time.perf_counter() + last <= deadline or (tracer and r < 2):
        traced = bool(tracer) and r > 0
        if traced and r == 1:
            tracer.install()
        round_start = time.perf_counter()
        for op in w.round(r):
            timed = Timed(ref, sample=w.sample_inside and not traced)
            try:
                with timed:
                    result, error = op.run(), None
            except Exception as exc:  # a crash is a failed operation, reported
                result, error = None, exc
            ref_after = ref.seconds()
            if error is None:
                try:
                    n_failed, messages = op.check(result)
                except Exception as exc:
                    error = exc
            if error is not None:
                n_failed, messages = op.count, [f"{type(error).__name__}: {error}"]
            calls.append((r, op.name, op.count, timed.seconds,
                          statistics.median([ref_before, *timed.samples, ref_after])))
            ref_before = ref_after
            attempted += op.count
            failed += n_failed
            if n_failed and f"{w.name}/{op.name}" not in workloads.KNOWN_FAULTS:
                unexpected.append(op.name)
            print(f"{'FAIL' if n_failed else 'PASS'} round {r} {op.name} {1000.0 * timed.seconds:.1f} ms"
                  + "".join(f"\n    {m}" for m in messages))
        round_traced.append(traced)
        last = time.perf_counter() - round_start
        if r == 0:
            # later rounds can raise the peak by how the allocator reuses
            # the first round's memory, and their number follows the host
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        r += 1
    if tracer:
        tracer.uninstall()
    print(f"{w.name}: {attempted} operations attempted, {failed} failed"
          + (f", unexpected failures: {sorted(set(unexpected))}" if unexpected else ""))

    round_s = [0.0] * len(round_traced)  # seconds spent in opalg
    round_ref = [0.0] * len(round_traced)  # the same in reference times
    op_ms, op_ref, ms, refs = [], [], {}, []  # operations of the untraced rounds
    for k, name, count, seconds, ref_s in calls:
        round_s[k] += seconds
        round_ref[k] += seconds / ref_s
        if not round_traced[k]:
            op_ms.append(1000.0 * seconds / count)
            op_ref.append(seconds / count / ref_s)
            ms.setdefault(name, []).append(1000.0 * seconds)
            refs.append(ref_s)
    plain = [t for t, traced in zip(round_s, round_traced) if not traced]
    plain_ref = [t for t, traced in zip(round_ref, round_traced) if not traced]
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "machine": machine(np),
        "rounds": len(round_s),
        "round_s": statistics.median(plain),
        "op_gmean_ms": statistics.geometric_mean(op_ms),
        "reference_ms": 1000.0 * statistics.median(refs),
    }
    if w.name == "corpus-analyze":
        analyses = [t for name, v in ms.items() if name != "reproduce" for t in v]
        detail.update(analyze_p50_ms=statistics.median(analyses), analyze_tail_ms=tail(analyses),
                      reproduce_s=statistics.median(ms["reproduce"]) / 1000.0)
    elif w.name == "envelope-scaling":
        for n in workloads.FAMILY_SIZES:
            detail[f"analyze_family{n}_s"] = statistics.median(ms[f"anticommuting-family-{n}"]) / 1000.0
    elif w.name == "search-m3":
        detail["trials_per_s"] = workloads.SEARCH_TRIALS / statistics.median(plain)
    else:
        detail["certify_p50_ms"] = statistics.median(op_ms)
    print(json.dumps(detail))

    if tracer:
        traced_ref = [t for t, traced in zip(round_ref, round_traced) if traced]
        metrics = tracer.per_layer(len(traced_ref))
        metrics["src_lines"] = src_lines(src / "opalg")
        metrics["trace_overhead_pct"] = 100.0 * (statistics.median(traced_ref) / plain_ref[0] - 1.0)
        values = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{w.name}-seed{args.seed}.jsonl")
    else:
        values = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "round_ref": {"value": statistics.median(plain_ref), "unit": "ref"},
            "op_gmean_ref": {"value": statistics.geometric_mean(op_ref), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
