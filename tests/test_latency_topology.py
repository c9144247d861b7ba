"""Tests for latency models, IP utilities, and topology wiring."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.simnet.ipaddr import IpAllocator, int_to_ip, ip_to_int, is_private
from repro.simnet.latency import (
    INIT_CWND_BYTES,
    LatencyModel,
    slow_start_rounds,
    transfer_time,
)
from repro.simnet.rng import RngRegistry
from repro.simnet.topology import AccessNetwork, Network


class TestLatencyModel:
    def test_zero_jitter_is_deterministic(self):
        model = LatencyModel(base_rtt=0.1, jitter_sigma=0.0)
        rng = random.Random(1)
        assert model.sample_rtt(rng) == 0.1

    def test_jitter_centers_on_base(self):
        model = LatencyModel(base_rtt=0.2, jitter_sigma=0.1)
        rng = random.Random(1)
        samples = [model.sample_rtt(rng) for _ in range(4000)]
        mean = sum(samples) / len(samples)
        assert 0.19 < mean < 0.21

    def test_high_jitter_has_heavier_tail(self):
        rng_a, rng_b = random.Random(1), random.Random(1)
        calm = LatencyModel(base_rtt=0.2, jitter_sigma=0.05)
        congested = LatencyModel(base_rtt=0.2, jitter_sigma=0.6)
        calm_samples = sorted(calm.sample_rtt(rng_a) for _ in range(2000))
        hot_samples = sorted(congested.sample_rtt(rng_b) for _ in range(2000))
        assert hot_samples[-20] > calm_samples[-20]

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(base_rtt=-1)
        with pytest.raises(ValueError):
            LatencyModel(base_rtt=0.1, jitter_sigma=-0.1)


class TestTransferTime:
    def test_small_object_fits_initial_window(self):
        assert slow_start_rounds(1000) == 0
        assert slow_start_rounds(INIT_CWND_BYTES) == 0

    def test_rounds_grow_logarithmically(self):
        assert slow_start_rounds(INIT_CWND_BYTES * 2) >= 1
        assert slow_start_rounds(INIT_CWND_BYTES * 100) <= 8

    def test_transfer_monotone_in_size(self):
        small = transfer_time(10_000, rtt=0.1, bandwidth_bps=10e6)
        large = transfer_time(1_000_000, rtt=0.1, bandwidth_bps=10e6)
        assert large > small

    def test_transfer_monotone_in_rtt(self):
        near = transfer_time(100_000, rtt=0.02, bandwidth_bps=10e6)
        far = transfer_time(100_000, rtt=0.4, bandwidth_bps=10e6)
        assert far > near

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            transfer_time(-1, 0.1, 1e6)
        with pytest.raises(ValueError):
            transfer_time(100, 0.1, 0)

    @given(st.integers(min_value=0, max_value=10_000_000))
    def test_rounds_never_negative(self, size):
        assert slow_start_rounds(size) >= 0


class TestIpUtils:
    def test_roundtrip(self):
        assert ip_to_int(int_to_ip(0x01020304)) == 0x01020304
        assert int_to_ip(ip_to_int("8.8.8.8")) == "8.8.8.8"

    @pytest.mark.parametrize("addr", ["10.0.0.5", "192.168.1.1", "127.0.0.1", "172.16.9.9"])
    def test_private_detection(self, addr):
        assert is_private(addr)

    @pytest.mark.parametrize("addr", ["8.8.8.8", "100.0.0.1", "172.32.0.1"])
    def test_public_detection(self, addr):
        assert not is_private(addr)

    def test_allocator_unique(self):
        alloc = IpAllocator()
        addresses = {alloc.allocate() for _ in range(1000)}
        assert len(addresses) == 1000

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            ip_to_int("1.2.3")
        with pytest.raises(ValueError):
            ip_to_int("1.2.3.999")


class TestNetwork:
    def make_network(self):
        return Network(RngRegistry(7))

    def test_add_as_and_host(self):
        net = self.make_network()
        isp = net.add_as(17557, "PTCL", "pakistan")
        host = net.add_host("client-1", "pakistan", asn=17557)
        assert net.host_for_ip(host.ip) is host
        assert net.hosts_by_name["client-1"] is host
        assert net.ases[17557] is isp

    def test_duplicate_rejected(self):
        net = self.make_network()
        net.add_as(1, "a", "x")
        with pytest.raises(ValueError):
            net.add_as(1, "b", "y")
        net.add_host("h", "pakistan")
        with pytest.raises(ValueError):
            net.add_host("h", "pakistan")

    def test_host_on_unknown_as_rejected(self):
        net = self.make_network()
        with pytest.raises(ValueError):
            net.add_host("h", "pakistan", asn=999)

    def test_dns_registration(self):
        net = self.make_network()
        host = net.add_host("www.youtube.com", "global-anycast", register_dns=True)
        assert net.authoritative_ips("www.youtube.com") == [host.ip]
        assert net.authoritative_ips("WWW.YOUTUBE.COM") == [host.ip]
        assert net.authoritative_ips("nonexistent.example") == []

    def test_geo_rtt_symmetric_lookup(self):
        net = self.make_network()
        assert net.geo_rtt("pakistan", "uk") == pytest.approx(0.228)
        assert net.geo_rtt("uk", "pakistan") == pytest.approx(0.228)

    def test_geo_rtt_same_location_default(self):
        net = self.make_network()
        assert net.geo_rtt("uk", "uk") == pytest.approx(0.012)

    def test_latency_between_includes_extra_rtt(self):
        net = self.make_network()
        a = net.add_host("a", "pakistan", extra_rtt=0.05)
        b = net.add_host("b", "uk", extra_rtt=0.02)
        model = net.latency_between(a, b)
        assert model.base_rtt == pytest.approx(0.228 + 0.05 + 0.02)

    def test_path_bandwidth_is_bottleneck(self):
        net = self.make_network()
        a = net.add_host("a", "pakistan", bandwidth_bps=5e6)
        b = net.add_host("b", "uk", bandwidth_bps=100e6)
        assert net.path_bandwidth(a, b) == 5e6


class TestAccessNetwork:
    def test_single_homed_always_same(self):
        net = Network(RngRegistry(1))
        isp = net.add_as(1, "only", "pakistan")
        access = AccessNetwork(isps=[isp])
        rng = random.Random(3)
        assert not access.multihomed
        assert all(access.pick_isp(rng) is isp for _ in range(10))

    def test_multihomed_uses_both(self):
        net = Network(RngRegistry(1))
        isp_a = net.add_as(1, "a", "pakistan")
        isp_b = net.add_as(2, "b", "pakistan")
        access = AccessNetwork(isps=[isp_a, isp_b])
        rng = random.Random(3)
        chosen = {access.pick_isp(rng).asn for _ in range(100)}
        assert access.multihomed
        assert chosen == {1, 2}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AccessNetwork(isps=[])


class TestRngRegistry:
    def test_streams_are_stable_and_distinct(self):
        rngs = RngRegistry(5)
        tor = rngs.stream("tor")
        assert rngs.stream("tor") is tor
        a = RngRegistry(5).stream("tor").random()
        b = RngRegistry(5).stream("tor").random()
        assert a == b
        c = RngRegistry(5).stream("lantern").random()
        assert a != c

    def test_fork_changes_streams(self):
        parent = RngRegistry(5)
        child = parent.fork("user-1")
        assert parent.stream("x").random() != child.stream("x").random()
