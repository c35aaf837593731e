"""Steadiness report: run workloads repeatedly and show the spread of each metric.

    python3 bench/steady.py --runs 10 --workloads corpus-analyze,search-m3
    python3 bench/steady.py --compare bench/out/steady-A.json bench/out/steady-B.json

Runs alternate between the workloads, run i of every workload using seed
--first-seed + i and the run length of BENCHMARK.json.  For each workload
and end-to-end metric the report prints the median, the quartiles and the
spread (third minus first quartile, over the median) against a third of
the metric's bound, and the share of failed operations in every run.  The
runs are saved under bench/out so that two sets can be compared:
--compare prints each metric's median shift from the first set to the
second against its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(cfg: dict, workload: str, seed: int) -> dict:
    cmd = cfg["command"] + ["--workload", workload, "--seed", str(seed),
                            "--seconds", str(cfg["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, detail, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), detail=json.loads(detail))


def report(results: dict, cfg: dict) -> bool:
    """Print the table; True when every spread is below bound / 3."""
    steady = True
    for workload, runs in results.items():
        shares = sorted({(r["failed"], r["attempted"]) for r in runs})
        share_set = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{workload}: {len(runs)} runs, failed/attempted {shares}"
              + ("" if len(share_set) == 1 else "  UNEQUAL SHARES"))
        steady &= len(share_set) == 1
        print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
        for m in cfg["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady &= ok
            print(f"  {m['name']:14s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound'] / 3:8.3f}"
                  + ("" if ok else "  WIDE"))
    return steady


def compare(first: dict, second: dict, cfg: dict) -> bool:
    ok_all = True
    for workload in first:
        print(f"\n{workload}")
        a_share = {r["failed"] / r["attempted"] for r in first[workload]}
        b_share = {r["failed"] / r["attempted"] for r in second[workload]}
        same = a_share == b_share and len(a_share) == 1
        ok_all &= same
        print(f"  failed share {sorted(a_share)} vs {sorted(b_share)}" + ("" if same else "  DIFFERENT"))
        for m in cfg["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = worse <= m["bound"]
            ok_all &= ok
            print(f"  {m['name']:14s} {a:12.4f} -> {b:12.4f}  worse by {worse:+.3f} (bound {m['bound']})"
                  + ("" if ok else "  REGRESSED"))
    return ok_all


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--compare", nargs=2, metavar="SET")
    args = p.parse_args(argv)
    cfg = spec()
    if args.compare:
        sets = [json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare]
        return 0 if compare(*sets, cfg) else 1
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in cfg["workloads"]]
    results = {name: [] for name in names}
    for i in range(args.runs):
        for name in names:
            start = time.perf_counter()
            res = run_once(cfg, name, args.first_seed + i)
            results[name].append(res)
            print(f"run {i + 1}/{args.runs} {name} seed {args.first_seed + i}: "
                  f"{time.perf_counter() - start:.1f} s, failed {res['failed']}/{res['attempted']}", flush=True)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results), encoding="utf-8")
    print(f"saved {path.relative_to(ROOT)}")
    return 0 if report(results, cfg) else 1


if __name__ == "__main__":
    sys.exit(main())
