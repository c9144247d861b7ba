"""Tests for the Figure-4 detection flowchart and Table-5 timings."""

import pytest

from repro.core.detection import measure_direct_path
from repro.core.records import BlockStatus, BlockType
from repro.scenarios.library import TABLE5_SITES
from repro.workloads.scenarios import pakistan_case_study


@pytest.fixture(scope="module")
def scenario():
    return pakistan_case_study(seed=21, with_proxy_fleet=False)


def detect(scenario, isp, url):
    world = scenario.world
    client, access = world.add_client(
        f"det-{world.network._ips.allocate()}", [isp]
    )
    ctx = world.new_ctx(client, access, stream=f"det/{url}/{world.env.now}")
    return world.run_process(measure_direct_path(world, ctx, url))


class TestFlowchartClassification:
    def test_unblocked_page_is_not_blocked(self, scenario):
        outcome = detect(
            scenario, scenario.isp_a, scenario.urls["small-unblocked"]
        )
        assert outcome.status is BlockStatus.NOT_BLOCKED
        assert outcome.stages == []
        assert outcome.response.status == 200

    def test_http_blockpage_detected(self, scenario):
        outcome = detect(scenario, scenario.isp_a, scenario.urls["youtube"])
        assert outcome.status is BlockStatus.BLOCKED
        assert outcome.stages == [BlockType.BLOCK_PAGE]
        assert outcome.suspected_blockpage  # pending phase-2 confirmation

    def test_tcp_ip_blackhole_detected(self, scenario):
        outcome = detect(scenario, scenario.isp_a, scenario.urls["table5/tcp-ip"])
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.IP_TIMEOUT in outcome.stages

    def test_dns_servfail_detected_via_gdns(self, scenario):
        outcome = detect(
            scenario, scenario.isp_a, scenario.urls["table5/dns-servfail"]
        )
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.DNS_SERVFAIL in outcome.stages
        # GDNS answered, the page itself loads: evidence is DNS-only.
        assert outcome.response is not None

    def test_dns_refused_detected(self, scenario):
        outcome = detect(
            scenario, scenario.isp_a, scenario.urls["table5/dns-refused"]
        )
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.DNS_REFUSED in outcome.stages

    def test_multistage_dns_plus_ip(self, scenario):
        outcome = detect(
            scenario, scenario.isp_a, scenario.urls["table5/tcp-ip+dns"]
        )
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.DNS_SERVFAIL in outcome.stages
        assert BlockType.IP_TIMEOUT in outcome.stages

    def test_isp_b_dns_redirect_plus_http_drop(self, scenario):
        outcome = detect(scenario, scenario.isp_b, scenario.urls["youtube"])
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.DNS_REDIRECT in outcome.stages
        assert BlockType.HTTP_TIMEOUT in outcome.stages

    def test_nonexistent_domain_is_not_censorship(self, scenario):
        outcome = detect(scenario, scenario.isp_a, "http://no-such-site.example/")
        assert outcome.status is BlockStatus.NOT_BLOCKED
        assert outcome.error is not None

    def test_https_sni_drop_detected(self, scenario):
        outcome = detect(
            scenario, scenario.isp_b, "https://www.youtube.com/"
        )
        assert outcome.status is BlockStatus.BLOCKED
        assert BlockType.SNI_TIMEOUT in outcome.stages


class TestDetectionTimes:
    """Table 5: average detection times per blocking type."""

    def average(self, scenario, key, runs=10):
        times = []
        for _ in range(runs):
            outcome = detect(
                scenario, scenario.isp_a, scenario.urls[f"table5/{key}"]
            )
            times.append(outcome.detection_time)
        return sum(times) / len(times)

    def test_tcp_ip_about_21s(self, scenario):
        assert 19.0 <= self.average(scenario, "tcp-ip") <= 24.0

    def test_dns_servfail_about_10s(self, scenario):
        assert 9.0 <= self.average(scenario, "dns-servfail") <= 14.0

    def test_dns_refused_fast(self, scenario):
        assert self.average(scenario, "dns-refused") <= 0.5

    def test_http_blockpage_about_2s(self, scenario):
        assert 0.5 <= self.average(scenario, "http-blockpage") <= 4.0

    def test_multistage_about_32s(self, scenario):
        assert 29.0 <= self.average(scenario, "tcp-ip+dns") <= 38.0

    def test_ordering_matches_paper(self, scenario):
        refused = self.average(scenario, "dns-refused", runs=5)
        blockpage = self.average(scenario, "http-blockpage", runs=5)
        servfail = self.average(scenario, "dns-servfail", runs=5)
        tcpip = self.average(scenario, "tcp-ip", runs=5)
        multi = self.average(scenario, "tcp-ip+dns", runs=5)
        assert refused < blockpage < servfail < tcpip < multi
