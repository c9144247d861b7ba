"""Tests for local_DB persistence, data-usage accounting, and the
developing-region preset (§8)."""

import json

import pytest

from repro.core import BlockStatus, BlockType, CSawClient, CSawConfig, LocalDatabase
from repro.workloads.scenarios import pakistan_case_study


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSnapshotRestore:
    def make_db(self, clock):
        db = LocalDatabase(asn=17557, ttl=1000.0, clock=clock)
        db.record_measurement(
            "http://blocked.example/", BlockStatus.BLOCKED,
            [BlockType.BLOCK_PAGE, BlockType.DNS_SERVFAIL],
        )
        db.record_measurement("http://fine.example/", BlockStatus.NOT_BLOCKED, [])
        db.mark_posted(["http://blocked.example/"])
        return db

    def test_roundtrip_preserves_everything(self):
        clock = FakeClock()
        original = self.make_db(clock)
        snapshot = original.snapshot()
        restored = LocalDatabase(clock=clock)
        assert restored.restore(snapshot) == 2
        assert restored.asn == 17557
        assert restored.ttl == 1000.0
        status, record = restored.lookup("http://blocked.example/deep")
        assert status is BlockStatus.BLOCKED
        assert record.stages == [BlockType.BLOCK_PAGE, BlockType.DNS_SERVFAIL]
        assert record.global_posted
        assert restored.lookup("http://fine.example/x")[0] is BlockStatus.NOT_BLOCKED

    def test_snapshot_is_json_serializable(self):
        clock = FakeClock()
        snapshot = self.make_db(clock).snapshot()
        parsed = json.loads(json.dumps(snapshot))
        restored = LocalDatabase(clock=clock)
        assert restored.restore(parsed) == 2

    def test_stale_records_expire_after_restore(self):
        clock = FakeClock()
        snapshot = self.make_db(clock).snapshot()
        clock.now = 5000.0  # the client was offline past the TTL
        restored = LocalDatabase(clock=clock)
        restored.restore(snapshot)
        assert restored.lookup("http://blocked.example/")[0] is (
            BlockStatus.NOT_MEASURED
        )

    @pytest.mark.parametrize("ttl", [0.0, -1.0, float("nan")])
    def test_restore_rejects_bad_ttl_and_keeps_state(self, ttl):
        # A NaN TTL read back from a snapshot never expired a record.
        clock = FakeClock()
        db = self.make_db(clock)
        snapshot = db.snapshot()
        snapshot["ttl"] = ttl
        with pytest.raises(ValueError, match="ttl"):
            db.restore(snapshot)
        assert db.ttl == 1000.0
        assert db.lookup("http://blocked.example/")[0] is BlockStatus.BLOCKED

    def test_restore_replaces_existing_state(self):
        clock = FakeClock()
        db = LocalDatabase(clock=clock)
        db.record_measurement("http://old.example/", BlockStatus.NOT_BLOCKED, [])
        db.restore(self.make_db(clock).snapshot())
        assert db.lookup("http://old.example/")[0] is BlockStatus.NOT_MEASURED


class TestDataUsage:
    @pytest.fixture()
    def scenario(self):
        return pakistan_case_study(seed=2468, with_proxy_fleet=False)

    def run(self, scenario, client, url, times=1):
        def proc():
            for _ in range(times):
                response = yield from client.request(url)
                yield response.measurement_process

        scenario.world.run_process(proc())

    def test_redundant_bytes_counted_on_unblocked_discovery(self, scenario):
        client = CSawClient(
            scenario.world, "du-1", [scenario.isp_a],
            transports=scenario.make_transports("du-1", include=["tor"]),
        )
        self.run(scenario, client, scenario.urls["small-unblocked"])
        stats = client.stats()
        # The Tor duplicate fetched the whole page for nothing.
        assert stats["redundant_data_bytes"] >= 95_000
        assert stats["data_used_bytes"] >= 2 * 95_000

    def test_steady_state_has_no_redundant_bytes(self, scenario):
        client = CSawClient(
            scenario.world, "du-2", [scenario.isp_a],
            transports=scenario.make_transports("du-2", include=["tor"]),
        )
        self.run(scenario, client, scenario.urls["small-unblocked"])
        after_discovery = client.measurement.redundant_bytes
        self.run(scenario, client, scenario.urls["small-unblocked"], times=5)
        # Selective redundancy: known-unblocked URLs go direct only.
        assert client.measurement.redundant_bytes == after_discovery

    def test_bytes_attributed_per_path(self, scenario):
        client = CSawClient(
            scenario.world, "du-3", [scenario.isp_a],
            transports=scenario.make_transports("du-3"),
        )
        self.run(scenario, client, scenario.urls["youtube"], times=3)
        by_path = client.measurement.bytes_by_path
        assert by_path.get("https", 0) >= 2 * 360_000  # the local fix
        assert by_path.get("direct", 0) > 0

    def test_developing_region_preset_reduces_duplicate_traffic(self, scenario):
        default_client = CSawClient(
            scenario.world, "du-4", [scenario.isp_a],
            transports=scenario.make_transports("du-4", include=["tor"]),
            config=CSawConfig(),
        )
        frugal_client = CSawClient(
            scenario.world, "du-5", [scenario.isp_a],
            transports=scenario.make_transports("du-5", include=["tor"]),
            config=CSawConfig.developing_region(),
        )
        for client in (default_client, frugal_client):
            # Fresh URLs each time: discovery traffic dominates.
            for index in range(6):
                url = f"http://{'www.smallnews.example.com'}/sec{index}"
                scenario.world.web.add_page(url, size_bytes=60_000)
                self.run(scenario, client, url)
        assert (
            frugal_client.measurement.redundant_bytes
            < default_client.measurement.redundant_bytes
        )

    def test_developing_region_overrides(self):
        config = CSawConfig.developing_region(probe_probability=0.5)
        assert config.probe_probability == 0.5
        assert config.redundant_delay == 2.0
