"""Content-addressed inspector plan cache (the amortization subsystem).

The paper's Figures 8–9 show that run-time reordering pays off only once
the inspector's one-time cost is amortized over enough executor runs.
This package makes the amortization persistent: what a warm bind and a
delta-bind read of the composed inspector's output — realized index
arrays, tiling, the interaction loop's stage functions, pipeline report,
verification status — is memoized (see :mod:`repro.plancache.memo`)
under a **content fingerprint** of (dataset index arrays) x (composition
steps + policies) x (code-version salt), in a two-tier store:

* an in-process LRU with a byte budget (hot datasets re-bind in
  microseconds);
* a disk tier of atomic-rename ``.npz`` artifacts (warm across
  processes and machines sharing a cache directory).

Invalidation is purely by content: mutate an index array, change a step
parameter, or edit a transform's source, and the key changes — stale
entries are simply never addressed again.  Corrupted artifacts are
detected, counted, and demoted to *safe misses*.

Usage::

    from repro.plancache import PlanCache

    cache = PlanCache()                    # ~/.cache/repro/plancache
    plan.bind(data, cache=cache)           # cold: runs + stores
    plan.bind(data, cache=cache)           # warm: no inspector stages run
    print(cache.stats.describe())

``python -m repro cache {stats,clear,warm}`` exposes the same from the
command line, and ``python -m repro doctor`` reports cache-dir health.
"""

from repro.plancache.fingerprint import (
    array_fingerprint,
    bind_fingerprint,
    code_version_salt,
    dataset_fingerprint,
    inspector_fingerprint,
    plan_fingerprint,
    step_fingerprint,
)
from repro.plancache.stats import CacheStats
from repro.plancache.store import (
    CacheEntry,
    DEFAULT_MEMORY_BUDGET,
    DiskStore,
    FORMAT_VERSION,
    MemoryLRU,
    PlanCache,
    resolve_cache_dir,
    resolve_max_bytes,
)

__all__ = [
    "CacheEntry",
    "CacheStats",
    "DEFAULT_MEMORY_BUDGET",
    "DiskStore",
    "FORMAT_VERSION",
    "MemoryLRU",
    "PlanCache",
    "resolve_max_bytes",
    "array_fingerprint",
    "bind_fingerprint",
    "code_version_salt",
    "dataset_fingerprint",
    "inspector_fingerprint",
    "plan_fingerprint",
    "resolve_cache_dir",
    "step_fingerprint",
]
