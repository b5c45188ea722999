"""The one binder: dataset handles + one ``CompositionPlan`` bind.

:class:`LocalBinder` is where every flight binds, in three places:
:class:`~repro.service.server.PlanService`'s worker threads, each
:class:`~repro.service.fleet.FleetService` shard process, and the
fleet's own process when every shard is dark.  :func:`result_body` is
the one shape a finished bind is reported in, whichever process ran it.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Tuple

from repro.errors import ValidationError
from repro.service.request import result_digests


def result_body(result, bind_ms: float, **provenance) -> dict:
    """What one finished bind answers with: the SHA-256 content digests
    (the bit-identity contract), the pipeline report and cache
    provenance, and the binder's own provenance (shard, generation…).
    JSON-able and picklable — fleet workers send it over their pipe.

    A plan-cache hit's digests are facts of its entry and dataset
    (``result.digests``), so only a cold or patched bind hashes here.
    ``delta_mode`` is the delta-bind path an epoch'd bind took
    (``patched``/``fallback``/``hit``; ``None`` off that path), which
    the service that dispatched the bind counts."""
    report = result.report
    digests = result.digests
    if digests is None:
        digests = result_digests(result)
    delta_info = getattr(result, "delta_info", None) or {}
    return {
        "fingerprints": digests,
        "cache": report.cache if report is not None else None,
        "delta_mode": delta_info.get("mode"),
        "overhead": dict(result.overhead),
        "data_moves": result.data_moves,
        "report": report.to_dict() if report is not None else None,
        "bind_ms": bind_ms,
        **provenance,
    }


class LocalBinder:
    """Memoized dataset handles, per epoch, and binds against one cache."""

    def __init__(self, cache):
        self.cache = cache
        #: (kernel, dataset, scale, epoch) -> KernelData.  Epoch 0 is the
        #: generated dataset; every higher epoch that was materialized is
        #: retained, which keeps pinned reads exact.
        self._handles: Dict[Tuple[str, str, int, int], object] = {}
        #: (kernel, dataset, scale, epoch) -> (parent data, delta): the
        #: provenance an epoch'd flight needs to take the incremental
        #: delta-bind path instead of a cold inspector run.
        self._parents: Dict[Tuple[str, str, int, int], Tuple[object, object]] = {}
        self._lock = threading.Lock()

    def resolve(
        self, kernel: str, dataset: str, scale: int, epoch: int = 0, chain=()
    ):
        """Shared, memoized (dataset, fingerprint) for one handle epoch.

        A handle holds the :class:`~repro.kernels.data.KernelData`
        instance only.  Its content fingerprint and validation verdict
        are facts derived once on the instance, which freezes its
        arrays, so one instance safely serves every concurrent flight
        over the same handle and is hashed and validated once, not per
        request.  An epoch not held yet is reached by applying ``chain``
        (the published deltas, ``chain[i]``: epoch i -> i + 1) to the
        newest epoch that is.

        Resolution is single-flighted like binds are: generating a cold
        dataset while holding the lock makes concurrent callers wait for
        the one materialization instead of each redundantly regenerating
        it (a thundering herd of N identical generations is N times the
        work and, under the GIL, far more than N times the wall clock).
        Distinct handles briefly serialize on a cold start — resolution
        is rare and memoized, so that is the cheap side of the trade.
        """
        from repro.plancache.fingerprint import dataset_fingerprint

        handle = (kernel, dataset, int(scale))
        with self._lock:
            held = epoch
            while held and handle + (held,) not in self._handles:
                held -= 1
            if held < epoch and len(chain) < epoch:
                raise ValidationError(
                    f"epoch {epoch} of handle {kernel}:{dataset}@{scale} was "
                    f"never published ({len(chain)} delta(s) known)",
                    stage="service",
                    hint="advance_epoch() publishes epochs; epoch 0 is the "
                    "generated dataset",
                )
            if handle + (held,) not in self._handles:
                from repro.kernels.data import make_kernel_data
                from repro.kernels.datasets import generate_dataset

                data = make_kernel_data(
                    kernel, generate_dataset(dataset, scale=scale)
                )
                self._handles[handle + (0,)] = data
            data = self._handles[handle + (held,)]
            for step in range(held, epoch):
                parent, data = data, chain[step].apply(data)
                self._parents[handle + (step + 1,)] = (parent, chain[step])
                self._handles[handle + (step + 1,)] = data
            data = self._handles[handle + (epoch,)]
            return data, dataset_fingerprint(data)

    def bind(self, request, plan, epoch: int = 0, chain=(), **provenance):
        """One inspector run for one request; returns ``(result,
        body)`` — the live result and its :func:`result_body`, which
        carries ``provenance`` (a shard's id and generation).

        An epoch'd bind takes the incremental delta-bind path against
        its parent epoch.  It falls back to a cold bind where that path
        is not defined: epoch 0 has no parent; the engine patches a
        *cached* parent bind, so without a cache there is nothing to
        patch; and a request that pins ``verify`` keeps the cold path
        (the patched path decides verification itself — it always
        re-verifies).  ``bind_ms`` times the bind alone.
        """
        handle = (plan.kernel.name, request.dataset, int(request.scale))
        data, _ = self.resolve(*handle, epoch, chain)
        parent = None
        if epoch and self.cache is not None and request.verify is None:
            parent = self._parents.get(handle + (epoch,))
        start = time.monotonic()
        if parent is not None:
            parent_data, delta = parent
            result = plan.rebind(
                parent_data, delta, cache=self.cache,
                num_steps=request.num_steps, child_data=data,
            )
        else:
            result = plan.bind(
                data, num_steps=request.num_steps, verify=request.verify,
                cache=self.cache,
            )
        bind_ms = (time.monotonic() - start) * 1e3
        return result, result_body(result, bind_ms, epoch=epoch, **provenance)


__all__ = ["LocalBinder", "result_body"]
