"""Streaming epoch semantics of the bind service: single-flight epoch
publication, pinned and stale-within-tolerance reads, the server-side
delta-bind path, and cross-shard invalidation fan-out on the fleet."""

import pytest

from repro.errors import ValidationError
from repro.plancache import PlanCache
from repro.runtime.faults import make_drift_delta
from repro.service import BindRequest, PlanService, ServiceConfig

from tests.service.conftest import SCALE, SPEC, make_request
from tests.service.contract import (
    OnFleetService,
    OnPlanService,
    StalenessContract,
)

pytestmark = pytest.mark.service


def _epoch_truths(epochs, seed=0, dataset="mol1", scale=SCALE):
    """Ground-truth digests per epoch plus the deltas that produced them."""
    from repro.kernels.data import make_kernel_data
    from repro.kernels.datasets import generate_dataset
    from repro.runtime.planspec import plan_from_spec
    from repro.service import result_digests

    plan = plan_from_spec(dict(SPEC))
    data = make_kernel_data(
        plan.kernel.name, generate_dataset(dataset, scale=scale)
    )
    digests = [result_digests(plan_from_spec(dict(SPEC)).bind(data))]
    deltas = []
    for epoch in range(1, epochs + 1):
        delta = make_drift_delta(
            data, edge_rate=0.02, move_rate=0.02, seed=seed * 1_000 + epoch
        )
        deltas.append(delta)
        data = delta.apply(data)
        digests.append(result_digests(plan_from_spec(dict(SPEC)).bind(data)))
    return digests, deltas


@pytest.fixture
def epoch_service():
    cache = PlanCache(use_disk=False, memory_budget_bytes=1 << 31)
    with PlanService(
        ServiceConfig(workers=2, queue_depth=16), cache=cache
    ) as svc:
        svc.preload_handle("moldyn", "mol1", SCALE)
        yield svc, cache


class TestRequestFields:
    def test_negative_epoch_rejected(self):
        with pytest.raises(ValidationError, match="epoch"):
            make_request(epoch=-1)

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValidationError, match="max_staleness"):
            make_request(max_staleness=-1)

    def test_wire_roundtrip_carries_epoch(self):
        request = make_request(epoch=3, max_staleness=2)
        payload = request.to_dict()
        assert payload["epoch"] == 3 and payload["max_staleness"] == 2
        again = BindRequest.from_dict(payload)
        assert again.epoch == 3 and again.max_staleness == 2

    def test_default_requests_omit_epoch_keys(self):
        payload = make_request().to_dict()
        assert "epoch" not in payload and "max_staleness" not in payload


class TestServiceEpochs(StalenessContract, OnPlanService):
    def test_advance_then_fresh_bind_is_bit_identical(self, epoch_service):
        svc, cache = epoch_service
        digests, deltas = _epoch_truths(2)
        assert svc.bind(make_request(epoch=0)).fingerprints == digests[0]
        for epoch, delta in enumerate(deltas, start=1):
            assert svc.advance_epoch("moldyn", "mol1", SCALE, delta) == epoch
            response = svc.bind(make_request(epoch=epoch))
            assert response.status == "ok", response.error
            assert response.epoch == epoch and response.stale is False
            assert response.fingerprints == digests[epoch]
        assert svc.current_epoch("moldyn", "mol1", SCALE) == 2
        # The epoch'd binds went through the incremental engine.
        assert cache.stats.delta_patched + cache.stats.delta_fallbacks == 2

    def test_pinned_read_of_retained_epoch(self, epoch_service):
        svc, _ = epoch_service
        digests, deltas = _epoch_truths(1)
        svc.bind(make_request(epoch=0))
        svc.advance_epoch("moldyn", "mol1", SCALE, deltas[0])
        pinned = svc.bind(make_request(epoch=0))
        assert pinned.status == "ok" and pinned.epoch == 0
        assert pinned.stale is False
        assert pinned.fingerprints == digests[0]
        current = svc.bind(make_request())  # no pin: newest epoch
        assert current.epoch == 1 and current.fingerprints == digests[1]

    def test_unpublished_pinned_epoch_rejected(self, epoch_service):
        svc, _ = epoch_service
        svc.advance_epoch(
            "moldyn", "mol1", SCALE, _epoch_truths(1)[1][0]
        )
        response = svc.bind(make_request(epoch=2, max_staleness=0))
        assert response.status == "error"


class TestFleetEpochs(StalenessContract, OnFleetService):
    def test_fanout_then_bind_and_stale_probe(self, tmp_path):
        from repro.service.fleet import FleetConfig, FleetService

        digests, deltas = _epoch_truths(1)
        config = FleetConfig(
            shards=2, queue_depth=16, cache_dir=str(tmp_path / "fleet"),
        )
        with FleetService(config) as fleet:
            fleet.preload_handle("moldyn", "mol1", SCALE)
            base = fleet.bind(make_request())
            assert base.status == "ok" and base.epoch == 0
            assert base.fingerprints == digests[0]

            assert fleet.advance_epoch("moldyn", "mol1", SCALE, deltas[0]) == 1
            assert fleet.current_epoch("moldyn", "mol1", SCALE) == 1

            fresh = fleet.bind(make_request(epoch=1))
            assert fresh.status == "ok", fresh.error
            assert fresh.epoch == 1 and fresh.stale is False
            assert fresh.fingerprints == digests[1]

            # Probe ahead of publication: stale-but-within-tolerance.
            probe = fleet.bind(make_request(epoch=2, max_staleness=1))
            assert probe.status == "ok", probe.error
            assert probe.stale is True and probe.epoch == 1
            assert probe.fingerprints == digests[1]

            # Past the tolerance: typed rejection, accounting intact.
            rejected = fleet.bind(make_request(epoch=9, max_staleness=1))
            assert rejected.status == "error"
            stats = fleet.stats()
        assert stats["counters"].get("epochs_advanced", 0) == 1
        assert stats["counters"].get("stale_served", 0) == 1
        assert stats["accounting_ok"]


class TestShardDeltaPath:
    """A shard binds through the same ``LocalBinder`` as ``PlanService``:
    an epoch'd bind takes the delta path, and the shard keeps every epoch
    it materialized, so a pinned read stays exact."""

    SPEC = {
        "kernel": "moldyn",
        "name": "shard-delta",
        "steps": [{"type": "cpack"}, {"type": "fst", "seed_block_size": 32}],
    }

    def test_epoch_bind_on_a_shard_is_patched(self, tmp_path):
        from repro.kernels.data import make_kernel_data
        from repro.kernels.datasets import generate_dataset
        from repro.runtime.planspec import plan_from_spec
        from repro.service import result_digests
        from repro.service.fleet import FleetConfig, FleetService

        plan = plan_from_spec(dict(self.SPEC))
        parent = make_kernel_data(
            plan.kernel.name, generate_dataset("mol1", scale=SCALE)
        )
        delta = make_drift_delta(
            parent, edge_rate=0.02, move_rate=0.02, seed=1
        )
        truths = [
            result_digests(plan_from_spec(dict(self.SPEC)).bind(data))
            for data in (parent, delta.apply(parent))
        ]
        config = FleetConfig(
            shards=1, queue_depth=4, cache_dir=str(tmp_path / "fleet")
        )
        with FleetService(config) as fleet:
            first = fleet.bind(make_request(self.SPEC, epoch=0))
            assert first.status == "ok", first.error
            assert first.fingerprints == truths[0]
            assert fleet.advance_epoch("moldyn", "mol1", SCALE, delta) == 1

            child = fleet.bind(make_request(self.SPEC, epoch=1))
            assert child.status == "ok", child.error
            assert child.cache == "delta"
            assert child.fingerprints == truths[1]

            pinned = fleet.bind(make_request(self.SPEC, epoch=0))
            assert pinned.status == "ok", pinned.error
            assert pinned.epoch == 0 and not pinned.stale
            assert pinned.fingerprints == truths[0]

    @pytest.mark.parametrize("service", ["plan", "fleet"])
    def test_the_service_counts_the_delta_mode(self, tmp_path, service):
        """The delta mode rides back in the bind body, and the service
        that dispatched the bind counts it: a shard's delta-bind reaches
        ``FleetService.stats()`` as ``PlanService``'s does."""
        from repro.kernels.data import make_kernel_data
        from repro.kernels.datasets import generate_dataset
        from repro.service.fleet import FleetConfig, FleetService

        parent = make_kernel_data(
            "moldyn", generate_dataset("mol1", scale=SCALE)
        )
        delta = make_drift_delta(
            parent, edge_rate=0.02, move_rate=0.02, seed=1
        )
        if service == "plan":
            svc = PlanService(
                ServiceConfig(workers=1), cache=PlanCache(use_disk=False)
            )
        else:
            svc = FleetService(
                FleetConfig(shards=1, cache_dir=str(tmp_path / "fleet"))
            )
        with svc:
            assert svc.bind(make_request(self.SPEC, epoch=0)).status == "ok"
            svc.advance_epoch("moldyn", "mol1", SCALE, delta)
            child = svc.bind(make_request(self.SPEC, epoch=1))
            assert child.status == "ok", child.error
            assert child.cache == "delta"
            counters = svc.stats()["counters"]
        assert counters.get("delta_patched") == 1
        assert "delta_fallback" not in counters
