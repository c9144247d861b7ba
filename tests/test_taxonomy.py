"""The failure taxonomy: single source of truth, exhaustive, and the
Figure-4 transition table — every (stage, failure) pair mapped to the
expected BlockType and stage sequence, checked against both the
DetectionOutcome (old golden semantics) and the new session trace."""

import pytest

from repro.core.detection import measure_direct_path
from repro.core.records import BlockStatus, BlockType
from repro.core.taxonomy import (
    BLOCK_TYPE_FAILURE_CLASS,
    FAILURE_BLOCK_TYPES,
    UnclassifiedFailureError,
    block_type_for,
    dns_block_type,
    failure_class,
)
from repro.simnet.dns import DnsError, DnsTimeout, NxDomain, Refused, ServFail
from repro.simnet.http import HttpTimeout
from repro.simnet.tcp import ConnectionReset, ConnectTimeout
from repro.simnet.tls import TlsReset, TlsTimeout
from repro.workloads.scenarios import pakistan_case_study

# (constructor, expected BlockType, expected failure class)
_CASES = [
    (lambda: DnsTimeout("x.example"), BlockType.DNS_TIMEOUT, "dns"),
    (lambda: NxDomain("x.example"), BlockType.DNS_NXDOMAIN, "dns"),
    (lambda: ServFail("x.example"), BlockType.DNS_SERVFAIL, "dns"),
    (lambda: Refused("x.example"), BlockType.DNS_REFUSED, "dns"),
    (lambda: ConnectTimeout("1.2.3.4"), BlockType.IP_TIMEOUT, "tcp"),
    (lambda: ConnectionReset("1.2.3.4"), BlockType.IP_RST, "tcp"),
    (lambda: TlsTimeout("x.example"), BlockType.SNI_TIMEOUT, "tls"),
    (lambda: TlsReset("x.example"), BlockType.SNI_RST, "tls"),
    (lambda: HttpTimeout("http://x.example/"), BlockType.HTTP_TIMEOUT, "http"),
]


class TestFailureMapping:
    @pytest.mark.parametrize(
        "make,expected,klass", _CASES,
        ids=[expected.value for _make, expected, _k in _CASES],
    )
    def test_block_type_and_class(self, make, expected, klass):
        error = make()
        assert block_type_for(error) is expected
        assert failure_class(error) == klass
        assert BLOCK_TYPE_FAILURE_CLASS[expected] == klass

    def test_unmapped_error_gives_none(self):
        assert block_type_for(ValueError("nope")) is None
        assert failure_class(ValueError("nope")) == "other"

    def test_subclass_resolves_and_caches(self):
        class SlowTimeout(ConnectTimeout):
            pass

        error = SlowTimeout("1.2.3.4")
        assert block_type_for(error) is BlockType.IP_TIMEOUT
        # Second lookup hits the type cache.
        assert block_type_for(SlowTimeout("5.6.7.8")) is BlockType.IP_TIMEOUT


class TestDnsExhaustiveness:
    """The satellite fix: unknown DnsError subclasses must raise, not
    silently classify as DNS_TIMEOUT."""

    @pytest.mark.parametrize(
        "make,expected",
        [(m, e) for m, e, k in _CASES if k == "dns"],
        ids=[e.value for _m, e, k in _CASES if k == "dns"],
    )
    def test_known_subclasses(self, make, expected):
        assert dns_block_type(make()) is expected

    def test_unknown_dns_subclass_raises(self):
        class ExoticDnsFailure(DnsError):
            pass

        with pytest.raises(UnclassifiedFailureError) as excinfo:
            dns_block_type(ExoticDnsFailure("x.example"))
        assert "ExoticDnsFailure" in str(excinfo.value)

    def test_non_dns_failure_raises(self):
        with pytest.raises(UnclassifiedFailureError):
            dns_block_type(ConnectTimeout("1.2.3.4"))


class TestTotality:
    def test_every_block_type_has_a_failure_class(self):
        assert set(BLOCK_TYPE_FAILURE_CLASS) == set(BlockType)

    def test_classes_are_the_known_five(self):
        assert set(BLOCK_TYPE_FAILURE_CLASS.values()) <= {
            "dns", "tcp", "tls", "http", "other"
        }

    def test_registered_failures_agree_with_class_map(self):
        for cls, block_type in FAILURE_BLOCK_TYPES:
            # The symptom's stage class must match the error's class
            # (DNS errors produce dns-stage symptoms, and so on).
            assert (
                BLOCK_TYPE_FAILURE_CLASS[block_type]
                == failure_class(cls.__new__(cls))
            )


# -- the Figure-4 transition table, end to end ---------------------------------

#: (url key, isp attr, expected status, expected DetectionOutcome.stages,
#:  expected trace stage sequence)
_DIRECT = ["local-dns", "tcp", "http", "blockpage-phase1"]
_TRANSITIONS = [
    ("small-unblocked", "isp_a", BlockStatus.NOT_BLOCKED, [], _DIRECT),
    (
        "youtube", "isp_a", BlockStatus.BLOCKED,
        [BlockType.BLOCK_PAGE], _DIRECT,
    ),
    (
        "table5/dns-servfail", "isp_a", BlockStatus.BLOCKED,
        [BlockType.DNS_SERVFAIL],
        ["local-dns", "global-dns", "tcp", "http", "blockpage-phase1"],
    ),
    (
        "table5/dns-refused", "isp_a", BlockStatus.BLOCKED,
        [BlockType.DNS_REFUSED],
        ["local-dns", "global-dns", "tcp", "http", "blockpage-phase1"],
    ),
    (
        "table5/tcp-ip", "isp_a", BlockStatus.BLOCKED,
        [BlockType.IP_TIMEOUT], ["local-dns", "tcp"],
    ),
    (
        "table5/tcp-ip+dns", "isp_a", BlockStatus.BLOCKED,
        [BlockType.DNS_SERVFAIL, BlockType.IP_TIMEOUT],
        ["local-dns", "global-dns", "tcp"],
    ),
    (
        "table5/http-blockpage", "isp_a", BlockStatus.BLOCKED,
        [BlockType.BLOCK_PAGE], _DIRECT,
    ),
    (
        "youtube", "isp_b", BlockStatus.BLOCKED,
        [BlockType.DNS_REDIRECT, BlockType.HTTP_TIMEOUT],
        ["local-dns", "global-dns", "tcp", "http"],
    ),
]


@pytest.fixture(scope="module")
def scenario():
    return pakistan_case_study(seed=29, with_proxy_fleet=False)


def _detect(scenario, isp, url):
    world = scenario.world
    client, access = world.add_client(
        f"tax-{world.network._ips.allocate()}", [isp]
    )
    ctx = world.new_ctx(client, access, stream=f"tax/{url}/{world.env.now}")
    return world.run_process(measure_direct_path(world, ctx, url))


class TestTransitionTable:
    @pytest.mark.parametrize(
        "key,isp,status,stages,sequence", _TRANSITIONS,
        ids=[f"{isp}-{key}" for key, isp, *_rest in _TRANSITIONS],
    )
    def test_outcome_and_trace(self, scenario, key, isp, status, stages, sequence):
        outcome = _detect(scenario, getattr(scenario, isp), scenario.urls[key])
        # Old golden semantics: DetectionOutcome status + stage evidence.
        assert outcome.status is status
        assert outcome.stages == stages
        # New session-trace semantics: the same facts, from the bus.
        trace = outcome.trace
        assert trace is not None and len(trace) > 0
        assert [e.stage for e in trace if e.kind == "begin"] == sequence
        evidence = [e.block_type for e in trace if e.kind == "evidence"]
        for block_type in stages:
            assert block_type in evidence
        stamps = [event.t for event in trace]
        assert stamps == sorted(stamps)
