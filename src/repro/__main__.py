"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``quickstart``        — plan/inspect/execute/measure one composition;
* ``table1``            — regenerate the dataset table;
* ``figure6`` .. ``figure9``, ``figure16``, ``figure17`` — regenerate a
  figure and print it (results also land under ``benchmarks/results``
  when run through pytest-benchmark instead);
* ``describe <kernel>`` — dump a kernel's unified iteration space, data
  mappings, and dependences in Omega-like syntax;
* ``plan <kernel> <step> [<step> ...]`` — plan a composition and print
  the threaded specifications and legality reports.  Steps: ``cpack``,
  ``gpart``, ``rcm``, ``lexgroup``, ``lexsort``, ``bucket``, ``fst``,
  ``cacheblock``, ``tilepack``;
* ``doctor``            — validate a dataset and a composition end to
  end and print the validation findings, the static-analysis report,
  the per-stage :class:`~repro.runtime.report.PipelineReport`,
  plan-cache-dir health, worker-pool health, and a ``ServiceStats`` block
  (a live self-exercise of the bind service).  ``--json`` emits one
  machine-readable payload instead;
* ``serve``             — run the concurrent bind service on localhost
  HTTP (default) or stdin/stdout (``--stdio``): plan-spec requests in,
  bit-identical bind responses out, with single-flight coalescing,
  admission control, and telemetry;
* ``bench-serve``       — closed-loop load benchmark of the service:
  the same duplicate-heavy workload with coalescing on vs off, with
  throughput ratio, latency percentiles, and bit-identity checks;
* ``lint <spec.json | kernel step...>`` — run the compile-time plan
  analyzer (rules ``RRT001``..``RRT005``) over a plan spec file or an
  inline composition.  ``--json`` emits the machine-readable report,
  ``--fix`` applies the safe remap-once/symmetry-halving rewrites and
  re-lints the rewritten plan.  Exit code: 1 if errors remain, 0 on
  warnings unless ``--strict``;
* ``cache stats``       — print the plan cache's tiers and counters;
* ``cache clear``       — drop every cached plan;
* ``cache warm <composition> <dataset>`` — pre-populate the plan cache
  for a composition on a dataset, so later binds skip the inspectors.

``--strict`` (default) / ``--permissive`` select the validation policy;
``doctor`` additionally accepts ``--on-stage-failure {raise,skip,identity}``.
Errors exit nonzero with a one-line typed message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_quickstart(args) -> int:
    from repro import quickstart

    quickstart(
        kernel=args.kernel,
        dataset=args.dataset,
        scale=args.scale,
        validation=args.validation,
    )
    return 0


def _cmd_table1(args) -> int:
    from repro.eval import format_rows, table1

    rows = table1(scale=args.scale)
    print(
        format_rows(
            rows,
            ["name", "paper_nodes", "paper_edges", "nodes", "edges", "edges_per_node"],
            "Table 1: datasets",
        )
    )
    return 0


def _cmd_figure(args) -> int:
    from repro.eval import (
        figure6,
        figure7,
        figure8,
        figure9,
        figure16,
        figure17,
        format_grid,
        format_rows,
    )

    jobs = getattr(args, "jobs", 1)
    if jobs is None:
        from repro.eval.parallel import default_jobs

        jobs = default_jobs()

    name = args.command
    if name in ("figure6", "figure7"):
        fn = figure6 if name == "figure6" else figure7
        print(format_grid(fn(scale=args.scale, jobs=jobs), title=name))
    elif name in ("figure8", "figure9"):
        fn = figure8 if name == "figure8" else figure9
        print(
            format_grid(
                fn(scale=args.scale, jobs=jobs),
                value="amortization_steps",
                title=name,
            )
        )
    elif name == "figure16":
        rows = [r for r in figure16(scale=args.scale) if r.machine == "pentium4"]
        print(
            format_rows(
                rows,
                ["kernel", "dataset", "composition", "percent_reduction"],
                "figure16 (% overhead reduction, remap-once)",
            )
        )
    elif name == "figure17":
        print(
            format_rows(
                figure17(scale=args.scale),
                ["machine", "kernel", "dataset", "fraction", "normalized_time"],
                "figure17 (parameter sweep)",
            )
        )
    return 0


def _cmd_describe(args) -> int:
    from repro.kernels.specs import kernel_by_name
    from repro.presburger import relation_to_omega
    from repro.uniform import ProgramState, UnifiedSpace

    kernel = kernel_by_name(args.kernel)
    state = ProgramState.initial(kernel)
    print(UnifiedSpace(kernel).describe())
    print()
    for name, mapping in sorted(state.data_mappings.items()):
        print(f"M[{name}] = {relation_to_omega(mapping)}")
    print()
    for dep in state.dependences:
        tag = " (reduction)" if dep.is_reduction else ""
        print(f"{dep.name}{tag} = {relation_to_omega(dep.relation)}")
    return 0


def _cmd_plan(args) -> int:
    from repro.kernels.specs import kernel_by_name
    from repro.runtime import CompositionPlan, make_step

    steps = [make_step(s) for s in args.steps]
    plan = CompositionPlan(kernel_by_name(args.kernel), steps)
    plan.plan(strict=False)
    print(plan.describe())
    print()
    for planned in plan.planned_transformations:
        status = "legal" if planned.report.proven else "OBLIGATIONS PENDING"
        label = getattr(planned.transformation, "label", "") or type(
            planned.transformation
        ).__name__
        print(f"{label}: {status}")
        for note in planned.report.notes:
            print(f"  - {note}")
    return 0


def _lint_plan(args):
    """Resolve the lint target (spec file, ``-`` for stdin, or inline
    composition) to a plan."""
    import os

    from repro.kernels.specs import kernel_by_name
    from repro.runtime import CompositionPlan
    from repro.runtime.planspec import load_plan_spec, make_step, plan_from_spec

    target = args.target
    if len(target) == 1 and target[0] == "-":
        import json

        from repro.errors import ValidationError

        try:
            spec = json.load(sys.stdin)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"plan spec on stdin is not valid JSON: {exc}",
                stage="planspec",
            ) from None
        return plan_from_spec(spec)
    if len(target) == 1 and (
        target[0].endswith(".json") or os.path.exists(target[0])
    ):
        return load_plan_spec(target[0])
    if len(target) < 2:
        raise SystemExit(
            "lint: give a plan spec (.json) path, or <kernel> <step> [<step> ...]"
        )
    kernel, step_names = target[0], target[1:]
    return CompositionPlan(
        kernel_by_name(kernel),
        [make_step(s) for s in step_names],
        remap=args.remap,
    )


def _merge_ir_diagnostics(report, kernel_name, sanitize):
    """Run the IR verifier over the plan's kernel executor (one program
    serves untiled and tiled binds) and merge its IRV diagnostics into
    the lint report.  With ``sanitize`` the bounds-guarded emitters will
    trap unproven accesses at run time, so IRV errors demote to warnings
    (the exit-code contract is unchanged either way)."""
    from repro.analysis.diagnostics import ERROR, WARNING
    from repro.analysis.irverify import verification_diagnostics

    codes, diagnostics, ir_report = verification_diagnostics(kernel_name)
    report.rules_run = list(report.rules_run)
    for code in codes:
        if code not in report.rules_run:
            report.rules_run.append(code)
    for diag in diagnostics:
        if sanitize and diag.severity == ERROR:
            diag.severity = WARNING
            diag.hint = (
                "accepted under --sanitize: the guarded executor "
                "traps this at run time"
            )
        report.diagnostics.append(diag)
    return ir_report


def _cmd_lint(args) -> int:
    """Run the compile-time plan analyzer; exit 1 when errors remain."""
    plan = _lint_plan(args)
    report = plan.analyze(verifier=args.verifier)

    fixes = None
    if args.fix:
        from repro.analysis import apply_fixes

        result = apply_fixes(plan)
        if result.changed:
            fixes = result
            plan = result.plan
            report = plan.analyze(verifier=args.verifier)

    ir_report = None
    if args.ir:
        ir_report = _merge_ir_diagnostics(
            report, plan.kernel.name, args.sanitize
        )

    if args.json:
        import json

        payload = report.to_dict()
        payload["fixes_applied"] = (
            [
                {
                    "code": rewrite.code,
                    "description": rewrite.description,
                    "stage_index": rewrite.stage_index,
                }
                for rewrite in fixes.applied
            ]
            if fixes is not None
            else []
        )
        if ir_report is not None:
            payload["irverify"] = ir_report.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if fixes is not None:
            print(fixes.describe())
            print()
        print(report.describe())
        if ir_report is not None:
            summary = ir_report.summary()
            print(
                "irverify: "
                + ("proven" if ir_report.proven else "UNPROVEN")
                + f" ({summary['discharged']}/{summary['obligations']} "
                f"obligations, {summary['passes_validated']} passes "
                "validated)"
            )
    return report.exit_code(strict=args.lint_strict)


def _cache_health_lines(directory=None):
    """Human-readable plan-cache-dir health (for ``doctor``/``cache``)."""
    from repro.plancache import DiskStore

    health = DiskStore(directory).health()
    status = []
    if not health["exists"]:
        status.append("MISSING")
    if not health["writable"]:
        status.append("NOT WRITABLE")
    if health["unreadable"]:
        status.append(f"{health['unreadable']} unreadable artifacts")
    lines = [
        f"plan cache dir: {health['path']} "
        f"[{', '.join(status) if status else 'healthy'}]",
        f"  entries: {health['entries']}  "
        f"total bytes: {health['total_bytes']}",
    ]
    if health.get("epoch_children") or health.get("epoch_orphans"):
        lines.append(
            f"  epoch chains: {health['epoch_chains']} "
            f"({health['epoch_children']} child epoch(s), "
            f"{health['epoch_orphans']} ORPHANED)"
        )
    return lines, health


def _worker_pool_lines():
    """Worker-pool health (for ``doctor``): probes the process pool the
    parallel grid runner would use."""
    from repro.eval.parallel import default_jobs, worker_pool_health

    ok, message = worker_pool_health(min(2, default_jobs()))
    lines = [f"experiment workers: {'ok' if ok else 'DEGRADED'} ({message})"]
    payload = {"worker_pool": {"ok": bool(ok), "message": message}}
    return lines, payload


def _artifact_kinds_text(by_suffix) -> str:
    """Compiled executors by artifact kind — the last suffix component:
    a ``dyn.so`` an older version left behind is never loaded, and is an
    ordinary ``so`` entry here and to ``cache gc``."""
    kinds = dict.fromkeys(("py", "c", "so", "proof"), (0, 0))
    for suffix, slot in by_suffix.items():
        kind = suffix.rpartition(".")[2]
        files, size = kinds.get(kind, (0, 0))
        kinds[kind] = (files + slot["files"], size + slot["bytes"])
    return "  ".join(
        f"{kind} {files} ({size} B)" for kind, (files, size) in kinds.items()
    )


def _executor_backend_lines():
    """Executor-backend selection + toolchain probe + IR-verifier status
    (for ``doctor``)."""
    from repro.analysis.irverify import verify_executor
    from repro.kernels.specs import KERNEL_NAMES
    from repro.lowering.executor import executor_backend_report

    report = executor_backend_report()
    tool = report["toolchain"]
    usage_text = _artifact_kinds_text(report["artifacts"]["by_suffix"])
    lines = [
        f"executor backend: {report['backend']} ({report['source']})",
        "  toolchain: "
        + (
            f"{tool['compiler']} [{tool['version']}]"
            if tool["available"]
            else f"unavailable ({tool['reason']}) — C rung degrades to numpy"
        ),
        f"  compiled artifacts: {report['artifacts']['artifacts']} "
        f"({report['artifacts']['total_bytes']} bytes) in "
        f"{report['artifacts']['directory']}",
        f"  artifact disk usage: {usage_text}  "
        "(evict with `repro cache gc --max-bytes N`)",
    ]
    verification = {
        kernel: verify_executor(kernel).proven for kernel in KERNEL_NAMES
    }
    report["verifier"]["kernels"] = verification
    status = "  ".join(
        f"{kernel}: {'proven' if ok else 'UNPROVEN'}"
        for kernel, ok in verification.items()
    )
    lines.append(
        f"  ir verifier [{report['verifier']['version']}]: {status}  "
        f"sanitizer: {'on' if report['sanitize']['enabled'] else 'off'} "
        f"({report['sanitize']['env']})"
    )
    if report["degraded"]:
        for frm, to, reason in report["fallbacks"]:
            lines.append(f"  FALLBACK: {frm} -> {to} ({reason})")
    return lines, report


def _service_stats_lines(scale=None):
    """ServiceStats: live self-exercise of the bind service (``doctor``)."""
    from repro.service import service_self_check

    check = service_self_check(scale=scale)
    counters = check["counters"]
    lines = [
        "service: " + ("ok" if check["ok"] else "DEGRADED"),
        f"  requests: {check['requests']}  "
        f"accepted: {counters.get('accepted', 0)}  "
        f"coalesced: {counters.get('coalesced', 0)}  "
        f"rejected: {counters.get('rejected', 0)}  "
        f"shed: {counters.get('shed', 0)}",
        "  accounting invariant: "
        + ("holds" if check["accounting_ok"] else "VIOLATED"),
        "  responses bit-identical to direct bind: "
        + ("yes" if check["bit_identical"] else "NO"),
    ]
    p50 = check.get("p50_total_ms")
    if p50 is not None:
        lines.append(f"  p50 total latency: {p50:.2f} ms")
    return lines, check


def _wave_skew_lines(result):
    """Wave-level load-balance stats of the bound plan's tiling (for
    ``doctor``): the Section 4 parallelism inspector's view, i.e. how
    much of the tile work a level-synchronous parallel run of the waves
    would serialise.  The executor itself runs tiles in ascending id."""
    from repro.runtime.inspector import dependence_edges
    from repro.transforms.parallel import tile_wavefronts

    if result.tiling is None:
        return ["wave skew: no tiling stage in this composition"], None
    waves = tile_wavefronts(
        result.tiling, dependence_edges(result.transformed)
    )
    skew = waves.wave_skew(result.tiling.tile_sizes())
    lines = [
        f"wave skew: {skew['num_tiles']} tiles in {skew['num_waves']} "
        f"waves, parallelism {skew['wave_parallelism']:.2f}x",
        f"  critical path {skew['critical_path']} of "
        f"{skew['total_work']} iterations; "
        f"max wave skew (max/mean tile) {skew['max_skew']:.2f}, "
        f"mean {skew['mean_skew']:.2f}",
    ]
    return lines, skew


def _cmd_doctor(args) -> int:
    """Validate a dataset + composition and print the pipeline report."""
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.kernels.specs import kernel_by_name
    from repro.runtime import CompositionPlan, make_step
    from repro.runtime.validate import validate_dataset, validate_kernel_data

    as_json = getattr(args, "json", False)
    blocks = []  # human-readable text blocks, printed unless --json

    dataset = generate_dataset(args.dataset, scale=args.scale)
    dataset_report = validate_dataset(dataset, policy=args.validation)
    blocks.append(dataset_report.describe())
    data = make_kernel_data(args.kernel, dataset)
    report = validate_kernel_data(data, policy=args.validation)
    blocks.append(report.describe())
    report.raise_if_failed(stage="doctor")

    steps = [make_step(s) for s in (args.steps or ["cpack", "lexgroup", "fst"])]
    plan = CompositionPlan(
        kernel_by_name(args.kernel),
        steps,
        on_stage_failure=args.on_stage_failure,
        validation=args.validation,
    )
    plan.plan(strict=False)
    analysis = plan.analyze()
    blocks.append(analysis.describe())
    result = plan.bind(data, verify=True)
    blocks.append(result.report.describe())

    cache_lines, health = _cache_health_lines(args.cache_dir)
    blocks.append("\n".join(cache_lines))
    cache_unhealthy = not health["writable"] or health["unreadable"] > 0
    pool_lines, engine = _worker_pool_lines()
    blocks.append("\n".join(pool_lines))
    executor_lines, executor_report = _executor_backend_lines()
    blocks.append("\n".join(executor_lines))
    skew_lines, wave_skew = _wave_skew_lines(result)
    blocks.append("\n".join(skew_lines))
    service_lines, service = _service_stats_lines(scale=args.scale)
    blocks.append("\n".join(service_lines))

    degraded = result.report.degraded
    service_unhealthy = not service["ok"]
    if degraded:
        verdict = "DEGRADED (see fallbacks above)"
    elif analysis.errors:
        verdict = f"analysis found {len(analysis.errors)} error(s) (see above)"
    else:
        verdict = "all checks passed"
        if analysis.warnings:
            verdict += f" ({len(analysis.warnings)} lint warning(s))"
        if cache_unhealthy:
            verdict += " (plan cache dir unhealthy)"
        if service_unhealthy:
            verdict += " (service self-check failed)"
    exit_code = 1 if degraded or analysis.errors else 0

    if as_json:
        import json

        payload = {
            "kernel": args.kernel,
            "dataset": args.dataset,
            "scale": args.scale,
            "validation": {
                "dataset": {
                    "ok": dataset_report.ok,
                    "findings": [str(f) for f in dataset_report.findings],
                },
                "kernel_data": {
                    "ok": report.ok,
                    "findings": [str(f) for f in report.findings],
                },
            },
            "analysis": analysis.summary(),
            "pipeline": result.report.to_dict(),
            "plan_cache": health,
            "engine": engine,
            "executor": executor_report,
            "wave_skew": wave_skew,
            "service": service,
            "verdict": verdict,
            "exit_code": exit_code,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for block in blocks:
            print(block)
            print()
        print("doctor: " + verdict)
    return exit_code


def _cmd_cache(args) -> int:
    """Inspect, clear, or warm the persistent plan cache."""
    from repro.plancache import PlanCache

    if args.cache_command == "stats":
        from repro.plancache.artifacts import ArtifactStore

        # One walk of the plan directory (``describe`` does none).
        lines, _health = _cache_health_lines(args.cache_dir)
        lines.append(PlanCache(directory=args.cache_dir).describe())
        usage = ArtifactStore(args.cache_dir).health()["by_suffix"]
        lines.append(
            "executor artifacts by kind: " + _artifact_kinds_text(usage)
        )
        print("\n".join(lines))
        return 0

    if args.cache_command == "clear":
        cache = PlanCache(directory=args.cache_dir)
        removed = cache.clear()
        print(f"removed {removed} cached plan(s)")
        return 0

    if args.cache_command == "gc":
        from repro.plancache.artifacts import ArtifactStore
        from repro.plancache.filestore import evict, eviction_summary
        from repro.plancache.store import DiskStore

        # One budget for the directory: epoch chains (delta-bind
        # lineages) and builds, interleaved by newest-member mtime,
        # leave oldest first and only as a whole — gc never strands a
        # child epoch without its parent or a ``.so`` without its proof.
        chains = DiskStore(args.cache_dir).chain_groups()["groups"]
        builds = list(ArtifactStore(args.cache_dir).file_groups().values())
        evict(chains + builds, args.max_bytes)
        plans = eviction_summary(chains, args.max_bytes)
        print(
            f"plan gc: removed {plans['removed_files']} artifact(s) / "
            f"{plans['removed_bytes']} bytes in "
            f"{plans['removed_chains']} chain(s); "
            f"{plans['remaining_entries']} plan(s) / "
            f"{plans['remaining_bytes']} bytes remain"
        )
        result = eviction_summary(builds, args.max_bytes)
        print(
            f"artifact gc: removed {result['removed_files']} file(s) / "
            f"{result['removed_bytes']} bytes; "
            f"{result['remaining_keys']} build(s) / "
            f"{result['remaining_bytes']} bytes remain "
            f"(budget {result['budget_bytes']})"
        )
        return 0

    # warm: bind one composition x dataset through the cache.
    from repro.cachesim.machines import machine_by_name
    from repro.eval.compositions import COMPOSITIONS, composition_steps
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.kernels.specs import kernel_by_name
    from repro.runtime import CompositionPlan

    if args.composition not in COMPOSITIONS:
        raise SystemExit(
            f"unknown composition {args.composition!r}; "
            f"choose from {sorted(COMPOSITIONS)}"
        )
    data = make_kernel_data(
        args.kernel, generate_dataset(args.dataset, scale=args.scale)
    )
    steps = composition_steps(
        args.composition, data, machine_by_name(args.machine)
    )
    plan = CompositionPlan(
        kernel_by_name(args.kernel), steps, name=args.composition
    )
    cache = PlanCache(directory=args.cache_dir)
    result = plan.bind(data, cache=cache)
    status = result.report.cache or "uncached"
    print(
        f"warmed {args.composition} on {args.kernel}/{args.dataset} "
        f"(scale {args.scale}): {status}"
    )
    print(cache.stats.describe())
    return 0


def _serve_http_until_signal(service, host, port, drain_s) -> dict:
    """Serve HTTP until SIGTERM/SIGINT, then drain gracefully.

    The accept loop runs on a daemon thread; the main thread parks on an
    event so the signal handlers (which Python runs on the main thread)
    can trigger a graceful drain: stop accepting, let in-flight flights
    finish within ``drain_s`` seconds, flush telemetry, exit.
    """
    import signal
    import threading

    from repro.service.httpd import ServiceHTTPServer, endpoint

    server = ServiceHTTPServer((host, port), service)
    print(f"serving on {endpoint(server)}", file=sys.stderr)
    stop = threading.Event()
    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(
            signum, lambda *_: stop.set()
        )
    accept_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    accept_thread.start()
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.shutdown()
        server.server_close()
        accept_thread.join(timeout=5.0)
    print(
        f"draining (deadline {drain_s}s)...", file=sys.stderr
    )
    outcome = service.drain(drain_s)
    print(
        "drained cleanly"
        if outcome["drained"]
        else f"drain deadline hit: {outcome['abandoned_flights']} "
        "flight(s) shed",
        file=sys.stderr,
    )
    return outcome


def _cmd_serve(args) -> int:
    """Run the bind service (in-process threads or a sharded fleet)."""
    from repro.errors import ValidationError
    from repro.plancache import PlanCache
    from repro.service import JsonlSink, PlanService, ServiceConfig, Telemetry

    if args.executor_backend:
        from repro import backends
        from repro.lowering.executor import resolve_executor_backend

        # Validate (and surface any toolchain fallback) up front, then
        # publish via the env var so every bind worker resolves it.
        resolution = resolve_executor_backend(args.executor_backend)
        backends.publish(backends.EXECUTOR_BACKEND, args.executor_backend)
        print(
            f"executor backend: {resolution.backend}"
            + (
                f" (requested {resolution.requested}, degraded)"
                if resolution.degraded
                else ""
            ),
            file=sys.stderr,
        )
        from repro.analysis.irverify import IRVERIFY_VERSION, verify_executor
        from repro.kernels.specs import KERNEL_NAMES
        from repro.lowering.executor import sanitize_enabled

        status = "  ".join(
            f"{kernel}:"
            + ("proven" if verify_executor(kernel).proven else "UNPROVEN")
            for kernel in KERNEL_NAMES
        )
        print(
            f"ir verifier [{IRVERIFY_VERSION}]: {status}  "
            f"sanitizer: {'on' if sanitize_enabled() else 'off'}",
            file=sys.stderr,
        )

    sink = None
    if args.trace:
        sink = JsonlSink(
            sys.stderr if args.trace == "-" else open(args.trace, "a")
        )
    telemetry = Telemetry(sink=sink)
    if args.shards:
        from repro.service import FleetConfig, FleetService
        from repro.service.chaos import ChaosPlan

        cache_dir = None
        if not args.no_cache:
            probe = PlanCache(directory=args.cache_dir)
            cache_dir = (
                str(probe.disk.directory) if probe.disk is not None else None
            )
        # The fleet has no worker threads and no coalescing switch:
        # a flag it would drop is an error, not a silent no-op.  (An
        # overload policy it lacks is rejected by FleetConfig itself.)
        for flag, given in (
            ("--workers", args.workers is not None),
            ("--no-coalesce", args.no_coalesce),
        ):
            if given:
                raise ValidationError(
                    f"{flag} does not apply with --shards",
                    stage="serve",
                    hint="fleet flights run on the shard processes and "
                    "always coalesce; drop the flag or drop --shards",
                )
        config = FleetConfig(
            shards=args.shards,
            queue_depth=args.queue_depth,
            overload=args.overload,
            cache_dir=cache_dir,
            default_scale=args.scale,
            chaos=ChaosPlan.from_env(),
        )
        service = FleetService(config, telemetry=telemetry)
        banner = (
            f"fleet: shards={config.shards} queue={config.queue_depth} "
            f"overload={config.overload} "
            f"cache={'off' if cache_dir is None else cache_dir}"
        )
    else:
        cache = (
            None
            if args.no_cache
            else PlanCache(directory=args.cache_dir)
        )
        config = ServiceConfig(
            workers=args.workers if args.workers is not None else 4,
            queue_depth=args.queue_depth,
            overload=args.overload,
            coalesce=not args.no_coalesce,
            default_scale=args.scale,
        )
        service = PlanService(config, cache=cache, telemetry=telemetry)
        banner = (
            f"workers={config.workers} queue={config.queue_depth} "
            f"overload={config.overload} "
            f"coalesce={'on' if config.coalesce else 'off'}"
        )
    with service:
        print(banner, file=sys.stderr)
        for item in args.preload or []:
            kernel, _, ds = item.partition(":")
            fingerprint = service.preload_handle(
                kernel, ds or "mol1", args.scale
            )
            print(
                f"preloaded {kernel}/{ds or 'mol1'} scale={args.scale}: "
                f"{fingerprint[:12]}",
                file=sys.stderr,
            )
        if args.stdio:
            from repro.service.protocol import serve_stdio

            served = serve_stdio(service, sys.stdin, sys.stdout)
            print(f"served {served} request(s)", file=sys.stderr)
            service.drain(args.drain_s)
        else:
            from repro.service.httpd import DEFAULT_HOST, DEFAULT_PORT

            host = args.host if args.host is not None else DEFAULT_HOST
            port = args.port if args.port is not None else DEFAULT_PORT
            _serve_http_until_signal(service, host, port, args.drain_s)
        stats = service.stats()
    print(
        "final: "
        + " ".join(f"{k}={v}" for k, v in sorted(stats["counters"].items())),
        file=sys.stderr,
    )
    return 0


def _cmd_bench_serve(args) -> int:
    """Benchmark the service's single-flight coalescing (on vs off)."""
    if args.chaos:
        return _bench_serve_chaos(args)
    if args.streaming:
        return _bench_serve_streaming(args)
    from repro.service.loadgen import coalescing_benchmark

    result = coalescing_benchmark(
        requests=args.requests,
        distinct=args.distinct,
        clients=args.clients,
        workers=args.workers,
        scale=args.scale,
        dataset=args.dataset,
    )
    accounting_ok = (
        result["enabled"]["accounting_ok"] and result["disabled"]["accounting_ok"]
    )
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(
            f"bench-serve: {result['requests']} requests over "
            f"{result['distinct_specs']} distinct spec(s), "
            f"{result['clients']} clients, {result['workers']} workers, "
            f"scale {result['scale']}"
        )
        for label in ("enabled", "disabled"):
            mode = result[label]
            latency = mode["latency"]
            print(
                f"  coalescing {label:8s}: "
                f"{mode['throughput_rps']:8.1f} req/s  "
                f"binds={mode['binds_executed']}  "
                f"coalesced={mode['coalesced_responses']}  "
                f"p50={latency['p50_ms']:.1f}ms "
                f"p95={latency['p95_ms']:.1f}ms "
                f"p99={latency['p99_ms']:.1f}ms"
            )
        print(
            f"  throughput ratio: {result['throughput_ratio']:.2f}x  "
            f"bit-identical: {'yes' if result['bit_identical'] else 'NO'}  "
            f"accounting: {'ok' if accounting_ok else 'VIOLATED'}"
        )
    return 0 if result["bit_identical"] and accounting_ok else 1


def _bench_serve_streaming(args) -> int:
    """Epoch-advancing streaming workload (bench-serve --streaming)."""
    from repro.service.loadgen import streaming_benchmark

    result = streaming_benchmark(
        epochs=args.epochs,
        requests_per_epoch=max(1, args.requests // max(args.epochs + 1, 1)),
        clients=args.clients,
        workers=args.workers,
        scale=args.scale,
        dataset=args.dataset,
        drift=args.drift,
        max_staleness=args.max_staleness,
        seed=args.chaos_seed,
    )
    healthy = result["bit_identical"] and result["accounting_ok"]
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        latency = result["latency"]
        print(
            f"bench-serve --streaming: {result['epochs']} epoch(s) x "
            f"{result['requests_per_epoch']} request(s), "
            f"{result['clients']} clients, drift={result['drift']:.3f}, "
            f"max_staleness={result['max_staleness']}"
        )
        print(
            f"  epochs advanced: {result['epochs_advanced']}  "
            f"stale served: {result['stale_served']}  "
            f"delta-binds: {result['delta_patched']} patched / "
            f"{result['delta_fallbacks']} fell back"
        )
        print(
            f"  bit-identical: {'yes' if result['bit_identical'] else 'NO'} "
            f"(fresh mismatches={result['digest_mismatches']}, "
            f"stale mismatches={result['stale_digest_mismatches']})  "
            f"accounting: {'ok' if result['accounting_ok'] else 'VIOLATED'}"
        )
        if latency:
            print(
                f"  latency: p50={latency.get('p50_ms', 0.0):.1f}ms "
                f"p95={latency.get('p95_ms', 0.0):.1f}ms "
                f"p99={latency.get('p99_ms', 0.0):.1f}ms"
            )
    return 0 if healthy else 1


def _bench_serve_chaos(args) -> int:
    """Chaos campaign against the sharded fleet (bench-serve --chaos)."""
    from repro.service.loadgen import fleet_chaos_benchmark

    result = fleet_chaos_benchmark(
        requests=args.requests,
        distinct=args.distinct,
        clients=args.clients,
        shards=args.shards or 2,
        scale=args.scale,
        dataset=args.dataset,
        kill_rate=args.kill_rate,
        seed=args.chaos_seed,
    )
    healthy = (
        result["bit_identical"]
        and result["accounting_ok"]
        and result["availability"] >= 0.99
    )
    if args.json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        counters = result["counters"]
        latency = result["latency"]
        print(
            f"bench-serve --chaos: {result['requests']} requests over "
            f"{result['distinct_specs']} distinct spec(s), "
            f"{result['clients']} clients, {result['shards']} shards, "
            f"kill_rate={result['chaos']['kill_rate']:.2f} "
            f"seed={result['chaos']['seed']}"
        )
        print(
            f"  availability: {result['availability'] * 100:.1f}%  "
            f"bit-identical: {'yes' if result['bit_identical'] else 'NO'}  "
            f"accounting: {'ok' if result['accounting_ok'] else 'VIOLATED'}"
        )
        print(
            f"  resilience: crashes={counters.get('worker_crashes', 0)} "
            f"retries={counters.get('retries', 0)} "
            f"restarts={counters.get('worker_restarts', 0)} "
            f"fallback={counters.get('fallback_binds', 0)}"
        )
        print(
            f"  latency: p50={latency['p50_ms']:.1f}ms "
            f"p95={latency['p95_ms']:.1f}ms p99={latency['p99_ms']:.1f}ms  "
            f"throughput={result['throughput_rps']:.1f} req/s"
        )
    return 0 if healthy else 1


def main(argv=None) -> int:
    from repro.kernels.specs import KERNEL_NAMES
    from repro.lowering.executor import EXECUTOR_BACKENDS

    policy = argparse.ArgumentParser(add_help=False)
    group = policy.add_mutually_exclusive_group()
    group.add_argument(
        "--strict", dest="validation", action="store_const", const="strict",
        help="fail validation on warnings too (default)",
    )
    group.add_argument(
        "--permissive", dest="validation", action="store_const",
        const="permissive",
        help="tolerate warnings (duplicate edges, self-loops, ...)",
    )
    policy.set_defaults(validation="strict")

    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "quickstart", help="run one composition end to end", parents=[policy]
    )
    p.add_argument("--kernel", default="moldyn")
    p.add_argument("--dataset", default="mol1")
    p.add_argument("--scale", type=int, default=128)
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser("table1", help="regenerate the dataset table")
    p.add_argument("--scale", type=int, default=None)
    p.set_defaults(func=_cmd_table1)

    for fig in ("figure6", "figure7", "figure8", "figure9", "figure16", "figure17"):
        p = sub.add_parser(fig, help=f"regenerate {fig}")
        p.add_argument("--scale", type=int, default=None)
        if fig in ("figure6", "figure7", "figure8", "figure9"):
            p.add_argument(
                "--jobs",
                type=int,
                default=None,
                help="worker processes for the grid (default: all CPUs; "
                "1 forces serial execution)",
            )
        p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("describe", help="dump a kernel's specifications")
    p.add_argument("kernel", choices=KERNEL_NAMES)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("plan", help="plan a composition symbolically")
    p.add_argument("kernel", choices=KERNEL_NAMES)
    p.add_argument("steps", nargs="+")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser(
        "doctor",
        help="validate a dataset/composition and print the pipeline report",
        parents=[policy],
    )
    p.add_argument("--kernel", default="moldyn")
    p.add_argument("--dataset", default="mol1")
    p.add_argument("--scale", type=int, default=128)
    p.add_argument(
        "--on-stage-failure",
        choices=["raise", "skip", "identity"],
        default="raise",
        help="degradation policy for failing inspector stages",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="plan-cache directory to health-check "
        "(default: $REPRO_PLANCACHE_DIR or ~/.cache/repro/plancache)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON payload instead of text",
    )
    p.add_argument(
        "steps", nargs="*",
        help="composition steps (default: cpack lexgroup fst)",
    )
    p.set_defaults(func=_cmd_doctor)

    p = sub.add_parser(
        "serve",
        help="run the concurrent bind service (localhost HTTP or --stdio)",
    )
    p.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    p.add_argument(
        "--port", type=int, default=None, help="TCP port (default: 8177; 0 = ephemeral)"
    )
    p.add_argument(
        "--stdio",
        action="store_true",
        help="serve line-delimited JSON on stdin/stdout instead of HTTP",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="bind worker threads (default 4; in-process serving only)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve from a supervised worker-process fleet of this many "
        "shards instead of in-process threads (0 = in-process)",
    )
    p.add_argument(
        "--drain-s",
        type=float,
        default=5.0,
        help="graceful-shutdown deadline: seconds to let in-flight "
        "requests finish after SIGTERM/SIGINT",
    )
    p.add_argument(
        "--queue-depth", type=int, default=64, help="admission queue bound"
    )
    p.add_argument(
        "--overload",
        choices=["block", "reject", "shed-oldest"],
        default="block",
        help="policy when the queue is full (a fleet has no parked queue "
        "to shed from: --shards takes block or reject)",
    )
    p.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable single-flight coalescing of identical in-flight requests",
    )
    p.add_argument(
        "--executor-backend",
        choices=EXECUTOR_BACKENDS,
        default=None,
        help="executor tier for binds (default: REPRO_EXECUTOR_BACKEND or "
        "numpy; c degrades to numpy without a toolchain)",
    )
    p.add_argument(
        "--no-cache", action="store_true", help="serve without a plan cache"
    )
    p.add_argument("--cache-dir", default=None, help="plan-cache directory")
    p.add_argument(
        "--scale",
        type=int,
        default=None,
        help="default dataset scale for requests that omit one",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append per-request tracing spans as JSON lines ('-' = stderr)",
    )
    p.add_argument(
        "--preload",
        action="append",
        default=None,
        metavar="KERNEL:DATASET",
        help="materialize a dataset handle before accepting traffic "
        "(repeatable), e.g. --preload moldyn:mol1",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "bench-serve",
        help="benchmark service coalescing (duplicate-heavy load, on vs off)",
    )
    p.add_argument("--requests", type=int, default=48)
    p.add_argument(
        "--distinct", type=int, default=2, help="distinct plan specs in the mix"
    )
    p.add_argument("--clients", type=int, default=16)
    p.add_argument("--workers", type=int, default=2)
    p.add_argument("--scale", type=int, default=32)
    p.add_argument("--dataset", default="mol1")
    p.add_argument(
        "--chaos",
        action="store_true",
        help="run a deterministic chaos campaign against the sharded "
        "fleet (worker SIGKILLs mid-bind) instead of the coalescing "
        "comparison",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=0,
        help="fleet shards for --chaos (default 2)",
    )
    p.add_argument(
        "--kill-rate",
        type=float,
        default=0.1,
        help="per-dispatch worker SIGKILL probability for --chaos",
    )
    p.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the deterministic chaos schedule",
    )
    p.add_argument(
        "--streaming",
        action="store_true",
        help="run the epoch-advancing streaming workload (dataset drifts "
        "each epoch; binds take the incremental delta-bind path; probes "
        "ahead of publication exercise the stale-serve mode)",
    )
    p.add_argument(
        "--epochs",
        type=int,
        default=6,
        help="dataset epochs for --streaming",
    )
    p.add_argument(
        "--drift",
        type=float,
        default=0.02,
        help="per-epoch edge/payload drift rate for --streaming",
    )
    p.add_argument(
        "--max-staleness",
        type=int,
        default=1,
        help="epochs of staleness the --streaming probe requests tolerate",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the machine-readable result"
    )
    p.set_defaults(func=_cmd_bench_serve)

    p = sub.add_parser(
        "lint",
        help="run the compile-time plan analyzer (RRT001..RRT005)",
    )
    p.add_argument(
        "target",
        nargs="+",
        help="a plan spec (.json) path, or <kernel> <step> [<step> ...]",
    )
    p.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    p.add_argument(
        "--fix",
        action="store_true",
        help="apply the safe rewrites (remap-once, symmetry-halving) and "
        "re-lint the rewritten plan",
    )
    p.add_argument(
        "--strict",
        dest="lint_strict",
        action="store_true",
        help="exit nonzero on warnings too (default: errors only)",
    )
    p.add_argument(
        "--remap",
        choices=["once", "each"],
        default="once",
        help="payload remap policy for inline <kernel> <step>... targets "
        "(spec files carry their own)",
    )
    p.add_argument(
        "--verifier",
        choices=["always", "on-degraded", "never"],
        default="on-degraded",
        help="runtime-verifier policy the analyzer assumes when judging "
        "unproven obligations (always: demote RRT003 to a warning)",
    )
    p.add_argument(
        "--ir",
        action="store_true",
        help="also run the IR verifier (IRV001..IRV005) over the plan's "
        "kernel executor and merge its diagnostics",
    )
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="with --ir: demote IRV errors to warnings — the sanitized "
        "(bounds-guarded) executor traps them at run time instead",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "cache",
        help="inspect, clear, or warm the persistent inspector plan cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print cache-dir health, tiers, and counters"),
        ("clear", "remove every cached plan"),
    ):
        cp = cache_sub.add_parser(name, help=help_text)
        cp.add_argument("--cache-dir", default=None)
        cp.set_defaults(func=_cmd_cache)
    cp = cache_sub.add_parser(
        "gc",
        help="evict least-recently-used plans and compiled/proof artifacts "
        "down to one disk budget",
    )
    cp.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        help="disk budget for the cache directory (0 = evict everything)",
    )
    cp.add_argument("--cache-dir", default=None)
    cp.set_defaults(func=_cmd_cache)
    cp = cache_sub.add_parser(
        "warm", help="pre-populate the cache for a composition x dataset"
    )
    cp.add_argument("composition", help="a named composition, e.g. cpack+fst")
    cp.add_argument("dataset", help="dataset name (mol1/mol2/foil/auto)")
    cp.add_argument("--kernel", default="moldyn")
    cp.add_argument("--machine", default="pentium4")
    cp.add_argument("--scale", type=int, default=None)
    cp.add_argument("--cache-dir", default=None)
    cp.set_defaults(func=_cmd_cache)

    args = parser.parse_args(argv)
    if getattr(args, "scale", None) is None and hasattr(args, "scale"):
        from repro.kernels.datasets import DEFAULT_SCALE

        args.scale = DEFAULT_SCALE
    from repro.errors import ReproError

    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
