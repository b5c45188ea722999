"""``compare A.jsonl B.jsonl`` and ``repeat``: the repeatability tools.

``repeat`` runs the benchmark command of ``metrics.manifest()`` once per
workload and side, interleaved A B A B with a new seed each time, and
appends each run's record to the side's JSONL file.  ``compare`` reads two
such files and prints, per workload and end-to-end metric, each side's
median and quartiles, how much worse B is than A, the bound, and a verdict:
``worse`` (B's median is worse by more than the bound), ``unresolved`` (a
side's quartile spread is wider than the bound, and not every B run reads
better than every A run), otherwise ``ok``.  A last row per workload gives
each side's failed / attempted ops, with the absolute bound 0: ``worse`` if
B fails a larger share than A, ``unresolved`` if the baseline itself failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e.metrics import END_TO_END, WORKLOADS, manifest
from benchmarks.e2e.stats import quartile_spread, relative_worsening

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, from one JSONL file of run records."""
    runs: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, value in record["metrics"].items():
                runs[record["workload"]][name].append(value)
            for name in ("failed", "attempted"):
                runs[record["workload"]][name].append(record[name])
    return runs


def failed_share(runs, workload: str) -> float:
    """Failed ops over attempted ops, summed over one side's runs."""
    side = runs.get(workload, {})
    return sum(side.get("failed", [])) / max(1, sum(side.get("attempted", [])))


def failure_verdict(failed_a: float, failed_b: float) -> str:
    """Verdict on the shares of ops that failed; any increase is worse."""
    if failed_b > failed_a:
        return "worse"
    return "unresolved" if failed_a else "ok"


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    worsening = relative_worsening(
        statistics.median(a), statistics.median(b), better
    )
    if worsening > bound:
        return "worse"
    spread = max(quartile_spread(a), quartile_spread(b))
    if spread > bound:
        if better == "lower":
            b_always_better = max(b) < min(a)
        else:
            b_always_better = min(b) > max(a)
        if not b_always_better:
            return "unresolved"
    return "ok"


def compare(path_a, path_b) -> int:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    header = (
        f"{'workload':14s} {'metric':12s} {'A q1':>10s} {'A med':>10s} "
        f"{'A q3':>10s} {'B q1':>10s} {'B med':>10s} {'B q3':>10s} "
        f"{'spreadA':>8s} {'spreadB':>8s} {'B worse':>8s} {'bound':>6s}  verdict"
    )
    print(header)
    print("-" * len(header))
    bad = 0
    for workload, _why in WORKLOADS:
        for metric in END_TO_END:
            a = runs_a.get(workload, {}).get(metric.name, [])
            b = runs_b.get(workload, {}).get(metric.name, [])
            if len(a) < 2 or len(b) < 2:
                print(f"{workload:14s} {metric.name:12s} (fewer than 2 runs a side)")
                bad += 1
                continue
            qa = statistics.quantiles(a, n=4)
            qb = statistics.quantiles(b, n=4)
            worse = relative_worsening(qa[1], qb[1], metric.better)
            result = verdict(a, b, metric.better, metric.bound)
            bad += result != "ok"
            print(
                f"{workload:14s} {metric.name:12s} {qa[0]:10.3f} {qa[1]:10.3f} "
                f"{qa[2]:10.3f} {qb[0]:10.3f} {qb[1]:10.3f} {qb[2]:10.3f} "
                f"{quartile_spread(a):8.2%} {quartile_spread(b):8.2%} "
                f"{worse:+8.2%} {metric.bound:6.2f}  {result}"
            )
        failed_a = failed_share(runs_a, workload)
        failed_b = failed_share(runs_b, workload)
        result = failure_verdict(failed_a, failed_b)
        bad += result != "ok"
        print(
            f"{workload:14s} {'failed/attempted':18s} A {failed_a:.6f}  "
            f"B {failed_b:.6f}  bound 0 (absolute)  {result}"
        )
    print(f"runs per side: A {_runs(runs_a)}, B {_runs(runs_b)}")
    return 1 if bad else 0


def _runs(runs) -> Dict[str, int]:
    return {w: len(m.get("setup_s", [])) for w, m in runs.items()}


def repeat(runs: int, out_a: str, out_b: str, seed: int, seconds: float) -> int:
    command = manifest()["command"]
    for index in range(runs):
        for side, out in enumerate((out_a, out_b)):
            for workload, _why in WORKLOADS:
                argv = command + [
                    "--workload", workload,
                    "--seed", str(seed + 2 * index + side),
                    "--seconds", str(seconds),
                    "--trace", "0",
                    "--out", out,
                ]
                print("+", " ".join(argv), file=sys.stderr)
                done = subprocess.run(
                    argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
                )
                if done.returncode != 0:
                    print(done.stdout, file=sys.stderr)
                    return done.returncode
                last = json.loads(done.stdout.strip().splitlines()[-1])
                if not last["correct"]:
                    print(f"incorrect run: {last}", file=sys.stderr)
                    return 1
    return 0


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    sub = parser.add_subparsers(dest="tool", required=True)
    cmp_parser = sub.add_parser("compare", help="compare two JSONL files of runs")
    cmp_parser.add_argument("a")
    cmp_parser.add_argument("b")
    rep = sub.add_parser("repeat", help="run every workload, interleaved A B A B")
    rep.add_argument("--runs", type=int, default=5, help="runs per side and workload")
    rep.add_argument("--out-a", required=True)
    rep.add_argument("--out-b", required=True)
    rep.add_argument("--seed", type=int, default=100)
    rep.add_argument("--seconds", type=float, default=float(manifest()["run_seconds"]))
    args = parser.parse_args(argv)
    if args.tool == "compare":
        return compare(args.a, args.b)
    return repeat(args.runs, args.out_a, args.out_b, args.seed, args.seconds)
