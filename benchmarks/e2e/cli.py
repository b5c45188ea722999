"""Command line of the end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --check
    python3 benchmarks/e2e/run.py --regen-golden
    python3 benchmarks/e2e/run.py manifest
    python3 benchmarks/e2e/run.py repeat --runs 5 --out-a A.jsonl --out-b B.jsonl
    python3 benchmarks/e2e/run.py compare A.jsonl B.jsonl

(``PYTHONPATH=src python -m benchmarks.e2e ...`` is the same program.)
The last line of a run's standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit status is 0
only if no op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RESULTS_DIR = HERE / "results"


def _scrub_environment(workdir: Path) -> None:
    """No ``REPRO_*`` knob leaks in from the caller; artifact and proof
    stores start cold in a directory of this run's own, never ~/.cache,
    and temporary files (the C compiler's too) stay inside the checkout."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_PLANCACHE_DIR"] = str(workdir / "plancache")
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = str(workdir)


def _require_program() -> bool:
    if (ROOT / "src" / "repro" / "__init__.py").exists():
        return True
    print(
        f"error: {ROOT / 'src' / 'repro'} not found; the benchmark measures "
        "the repro package of the checkout it sits in",
        file=sys.stderr,
    )
    return False


def _git_sha() -> str:
    """HEAD's commit from the .git files (no subprocess in a run)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def _append_history(args, result) -> None:
    import numpy
    from repro.lowering import toolchain

    compiler = toolchain.find_compiler()
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": toolchain.compiler_version(compiler) if compiler else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "probe_ms": result.info.get("probe_ms", result.metrics.get("harness.probe_ms")),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
        "info": result.info,
    }
    line = json.dumps(record) + "\n"
    with open(RESULTS_DIR / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line)


def _print_metrics(result) -> None:
    from benchmarks.e2e.metrics import UNITS

    for name, value in result.metrics.items():
        print(f"{name:40s} {value:16.6f} {UNITS[name]}")
    for name, value in result.info.items():
        print(f"  ({name:36s} {value:16.6f})")
    for line in result.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)


def _final_line(result) -> str:
    from benchmarks.e2e.metrics import UNITS

    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in result.metrics.items()
            },
        }
    )


def _run_one(args, process_start: float, workdir: Path):
    """One workload in this process; returns the ``Result``."""
    from benchmarks.e2e import runner
    from benchmarks.e2e.metrics import RUN_SECONDS
    from benchmarks.e2e.workloads import WORKLOAD_CLASSES

    workload = WORKLOAD_CLASSES[args.workload](
        seed=args.seed, scale=args.seconds / RUN_SECONDS
    )
    trace_path = None
    if args.trace:
        trace_path = RESULTS_DIR / f"trace_{args.workload}.json"
    result = runner.run_workload(workload, process_start, trace_path)
    if args.trace:
        from benchmarks.e2e.layers import measure_layers

        result.metrics.update(measure_layers(workdir))
    return result


def _check(args, workdir: Path) -> int:
    """Smoke mode: every workload, short, same checks, no bounds."""
    from benchmarks.e2e.workloads import WORKLOAD_CLASSES

    status = 0
    for name in WORKLOAD_CLASSES:
        args.workload = name
        start = time.perf_counter()
        result = _run_one(args, start, workdir)
        verdict = "ok" if result.correct else "FAILED"
        print(
            f"check {name:14s} {verdict:6s} {result.attempted:4d} ops, "
            f"{result.failed} failed, {time.perf_counter() - start:5.1f} s"
        )
        for line in result.failures[:10]:
            print(f"  {line}", file=sys.stderr)
        status |= 0 if result.correct else 1
    return status


def _regen_golden() -> int:
    """Record golden digests from direct binds (not through the service)."""
    from benchmarks.e2e import workloads as wl
    from benchmarks.e2e.layers import cachesim_ratios
    from repro.runtime import plan_from_spec
    from repro.service import result_digests

    data = wl.bind_datasets()
    bind = {}
    for key in wl.bind_keys(data):
        result = plan_from_spec(key.spec).bind(data[key.kernel, key.dataset])
        bind[key.id] = result_digests(result)
    stream = wl.StreamRebind(seed=0, scale=1.0)
    stream.check_golden = False
    stream.setup()
    golden = {
        "bind": bind,
        "cachesim_cycles_ratio": cachesim_ratios(),
        "stream_final_seed0": stream.expected[-1],
    }
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDEN_PATH} ({len(bind)} bind keys)")
    return 0


def _parser() -> argparse.ArgumentParser:
    from benchmarks.e2e.metrics import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=[name for name, _ in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help="nominal seconds of timed work; op counts scale with it",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced per-layer run (prints the per_layer metrics)",
    )
    parser.add_argument("--check", action="store_true", help="short smoke run of every workload")
    parser.add_argument("--regen-golden", action="store_true", help="rewrite golden.json")
    parser.add_argument("--out", help="also append this run's record to a JSONL file")
    return parser


def main(argv=None, process_start=None) -> int:
    if process_start is None:
        process_start = time.perf_counter()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "manifest":
        from benchmarks.e2e.metrics import manifest

        print(json.dumps(manifest(), indent=2))
        return 0
    if argv and argv[0] in ("compare", "repeat"):
        from benchmarks.e2e import compare

        return compare.main(argv)

    parser = _parser()
    args = parser.parse_args(argv)
    if not (args.check or args.regen_golden or args.workload):
        parser.error("one of --workload, --check, --regen-golden is required")
    if not _require_program():
        return 2
    RESULTS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR))
    try:
        _scrub_environment(workdir)
        if args.regen_golden:
            return _regen_golden()
        if args.check:
            args.seconds = min(args.seconds, 1.0)
            return _check(args, workdir)
        result = _run_one(args, process_start, workdir)
        _print_metrics(result)
        _append_history(args, result)
        print(_final_line(result))
        return 0 if result.correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
