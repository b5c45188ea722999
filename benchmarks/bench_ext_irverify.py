"""Extension: the IR verifier and its sanitizer fallback.

The verifier (:mod:`repro.analysis.irverify`) sits on the compiled
executor's bind path: every non-library bind either re-proves the
lowered program (bounds obligations discharged through the presburger
simplifier, race/commit checks, per-pass translation validation) or
reads the content-addressed proof artifact a previous bind recorded.
This benchmark prices all three costs on the Figure-6 moldyn/mol1
input:

* verifier wall clock per kernel (one program serves untiled and
  tiled binds) — the full proof, end to end, and its obligation counts;
* bind latency with and without a cached proof — a warm bind must not
  pay the verifier again (the proof read has to amortize like the
  artifact cache itself);
* the sanitizer tax — guarded vs unguarded executor wall clock, per
  backend, with the outputs asserted bit-identical (the guard prologue
  is observation only).

Timing protocol: sanitized/unguarded contenders are interleaved
round-robin and the minimum over rounds is reported.  Machine-readable
results land in ``benchmarks/results/BENCH_irverify.json``.
"""

import json
import tempfile
import time

import numpy as np

from benchmarks.conftest import save_and_print
from repro.analysis.irverify import IRVERIFY_VERSION, verify_executor
from repro.kernels import generate_dataset, make_kernel_data
from repro.kernels.datasets import DEFAULT_SCALE
from repro.lowering import toolchain
from repro.lowering.executor import clear_executor_memo, compile_executor

ROUNDS = 5
NUM_STEPS = 2
KERNELS = ("moldyn", "nbf", "irreg")

HAVE_CC = toolchain.have_toolchain()[0]

#: The sanitizer's guard prologue is a handful of vectorized range scans
#: over the index arrays — it must never dominate the executor.  The
#: JSON records the measured multiplier; this bound only catches a
#: pathological regression (e.g. a guard accidentally inside the loop).
MAX_SANITIZER_TAX = 10.0


def _verifier_times():
    rows = []
    for kernel in KERNELS:
        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            report = verify_executor(kernel)
            best = min(best, time.perf_counter() - t0)
        assert report.proven, report.describe()
        summary = report.summary()
        rows.append(
            {
                "kernel": kernel,
                "verify_ms": best * 1e3,
                "obligations": summary["obligations"],
                "passes_validated": len(report.pass_proofs),
                "assumed_facts": len(report.assumed),
            }
        )
    return rows


def _proof_cache_amortization(backend):
    """Cold bind (verify + compile) vs warm bind (proof + artifact read)."""
    with tempfile.TemporaryDirectory() as td:
        t0 = time.perf_counter()
        cold = compile_executor("moldyn", backend=backend, cache_dir=td,
                                memo=False)
        cold_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = compile_executor("moldyn", backend=backend, cache_dir=td,
                                memo=False)
        warm_t = time.perf_counter() - t0
    assert cold.verified and not cold.proof_from_cache
    assert warm.verified and warm.proof_from_cache
    return {
        "backend": backend,
        "cold_bind_ms": cold_t * 1e3,
        "warm_bind_ms": warm_t * 1e3,
        "amortization": cold_t / warm_t,
    }


def _sanitizer_tax(base, backend):
    plain = compile_executor("moldyn", backend=backend)
    guarded = compile_executor("moldyn", backend=backend, sanitize=True)
    assert guarded.sanitized and not plain.sanitized

    best = {"plain": float("inf"), "sanitized": float("inf")}
    outputs = {}
    for _ in range(ROUNDS):
        for name, compiled in (("plain", plain), ("sanitized", guarded)):
            data = base.copy()
            t0 = time.perf_counter()
            compiled.run(data.arrays, data.left, data.right,
                         num_steps=NUM_STEPS)
            best[name] = min(best[name], time.perf_counter() - t0)
            outputs[name] = data
    for k in outputs["plain"].arrays:
        assert np.array_equal(
            outputs["plain"].arrays[k], outputs["sanitized"].arrays[k]
        ), (backend, k)
    return {
        "backend": backend,
        "plain_ms": best["plain"] * 1e3,
        "sanitized_ms": best["sanitized"] * 1e3,
        "tax": best["sanitized"] / best["plain"],
    }


def run_experiment():
    clear_executor_memo()
    base = make_kernel_data("moldyn", generate_dataset("mol1", DEFAULT_SCALE))
    backends = ["numpy"] + (["c"] if HAVE_CC else [])
    return {
        "benchmark": "ir_verifier_and_sanitizer",
        "verifier_version": IRVERIFY_VERSION,
        "trace": "figure6 moldyn/mol1",
        "scale": DEFAULT_SCALE,
        "num_inter": int(base.num_inter),
        "num_nodes": int(base.num_nodes),
        "rounds": ROUNDS,
        "protocol": "interleaved round-robin, min of rounds",
        "toolchain": toolchain.toolchain_fingerprint(),
        "verifier": _verifier_times(),
        "proof_cache": [_proof_cache_amortization(b) for b in backends],
        "sanitizer": [_sanitizer_tax(base, b) for b in backends],
    }


def test_ext_irverify(benchmark, results_dir):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    lines = [
        f"Extension: IR verifier + sanitizer [{results['verifier_version']}]",
        f"  trace: {results['trace']} ({results['num_inter']} interactions, "
        f"{results['num_nodes']} nodes, {NUM_STEPS} steps)",
        f"  toolchain: {results['toolchain']}",
        f"  full proof wall clock (min of {ROUNDS}):",
    ]
    for r in results["verifier"]:
        lines.append(
            f"    {r['kernel']}: {r['verify_ms']:.1f} ms "
            f"({r['obligations']} obligations, "
            f"{r['passes_validated']} passes validated, "
            f"{r['assumed_facts']} assumed)"
        )
    lines.append("  bind latency (cold verify+compile -> warm proof hit):")
    for r in results["proof_cache"]:
        lines.append(
            f"    {r['backend']}: {r['cold_bind_ms']:.1f} -> "
            f"{r['warm_bind_ms']:.1f} ms ({r['amortization']:.0f}x)"
        )
    lines.append("  sanitizer tax (guarded vs unguarded, bit-identical):")
    for r in results["sanitizer"]:
        lines.append(
            f"    {r['backend']}: {r['plain_ms']:.2f} -> "
            f"{r['sanitized_ms']:.2f} ms ({r['tax']:.2f}x)"
        )
    save_and_print(results_dir, "ext_irverify", "\n".join(lines))

    path = results_dir / "BENCH_irverify.json"
    path.write_text(json.dumps(results, indent=2) + "\n")

    for r in results["proof_cache"]:
        assert r["warm_bind_ms"] <= r["cold_bind_ms"], r
    for r in results["sanitizer"]:
        assert r["tax"] <= MAX_SANITIZER_TAX, r
