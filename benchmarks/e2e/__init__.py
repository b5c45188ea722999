"""End-to-end benchmark of the bind path (see README.md in this directory).

One process, one closed-loop client, four workloads, speed-corrected
timings and a traced per-layer run.  ``BENCHMARK.json`` at the repository
root names the command, the workloads and every metric this package prints.
"""
