"""The canonical scenarios, expressed as specs.

These are the declarative re-statements of two legacy imperative
builders: Pakistan §2.3/Table 1 and the §7.5 blocking wave.
``repro.workloads.scenarios.pakistan_case_study`` is a thin wrapper
that compiles :func:`pakistan_spec`; the wave runs as
``ScenarioRunner(workers=1).run(wave_spec(...))``.
``tests/test_scenario_dsl.py`` proves both worlds bit-identical (same
seed, same floats) to the pre-redesign builders via committed golden
fingerprints.

The Table-7 pilot and the Figure-2 ONI sweep are not specs here: they
need a site corpus and per-AS mechanism mixes that no spec section
declares.  They build with the compiler's pieces all the same (block
pages, mechanism names, the transport catalogue; DESIGN.md §21).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .spec import (
    AsSpec,
    BlockpageSpec,
    EventSpec,
    ExecutionSpec,
    InfraSpec,
    PolicySpec,
    PopulationSpec,
    RuleSpec,
    ScenarioSpec,
    SiteSpec,
    WorkloadSpec,
)

__all__ = [
    "pakistan_spec",
    "wave_spec",
    "WAVE_ASNS",
    "TWITTER",
    "INSTAGRAM",
]

ISP_A_ASN = 17557
ISP_B_ASN = 38193
CLEAN_ASN = 9541

YOUTUBE = "www.youtube.com"
FRONT = "www.google.com"
PORN_SITE = "www.hotstuff-videos.com"
SMALL_UNBLOCKED = "www.smallnews.example.com"
LARGE_UNBLOCKED = "www.bigmedia.example.com"

TABLE5_SITES = {
    "tcp-ip": "www.blocked-tcpip.example.com",
    "dns-servfail": "www.blocked-dnsfail.example.com",
    "dns-refused": "www.blocked-dnsrefused.example.com",
    "http-blockpage": "www.blocked-http.example.com",
    "tcp-ip+dns": "www.blocked-multi.example.com",
}

TWITTER = "twitter.com"
INSTAGRAM = "www.instagram.com"
WAVE_ASNS = (38193, 17557, 59257, 45773)

_BLOCKED_CONTENT = dict(
    domains=(PORN_SITE, "hotstuff-videos.com"),
    keywords=("porn", "xxx", "adult-videos"),
)


def pakistan_spec(
    seed: int = 1,
    n_tor_relays: int = 40,
    n_lantern_proxies: int = 10,
    with_proxy_fleet: bool = True,
) -> ScenarioSpec:
    """The §2.3 / Table 1 / §7 case-study world as data."""
    sites = [
        SiteSpec(YOUTUBE, location="global-anycast", size_bytes=360_000,
                 category="video", supports_fronting=True, bandwidth_bps=200e6),
        SiteSpec(FRONT, location="global-anycast", size_bytes=15_000,
                 bandwidth_bps=400e6),
        SiteSpec(PORN_SITE, location="us-east", size_bytes=50_000,
                 category="porn"),
        SiteSpec(SMALL_UNBLOCKED, location="netherlands", size_bytes=95_000),
        SiteSpec(LARGE_UNBLOCKED, location="us-east", size_bytes=316_000),
    ] + [
        SiteSpec(hostname, location="us-east", size_bytes=300_000)
        for hostname in TABLE5_SITES.values()
    ]

    policy_a = PolicySpec(
        name="ISP-A",
        rules=(
            RuleSpec(domains=("youtube.com",), mechanisms=("blockpage-redirect",),
                     blockpage="block.isp-a.pk", label="youtube"),
            RuleSpec(mechanisms=("blockpage-redirect",),
                     blockpage="block.isp-a.pk", label="content",
                     **_BLOCKED_CONTENT),
            # Table-5 calibration rules (the measurement vantage).
            RuleSpec(domains=(TABLE5_SITES["tcp-ip"],),
                     ips_of=(TABLE5_SITES["tcp-ip"],),
                     mechanisms=("ip-drop",), label="table5-tcpip"),
            RuleSpec(domains=(TABLE5_SITES["dns-servfail"],),
                     mechanisms=("dns-servfail",), label="table5-servfail"),
            RuleSpec(domains=(TABLE5_SITES["dns-refused"],),
                     mechanisms=("dns-refused",), label="table5-refused"),
            RuleSpec(domains=(TABLE5_SITES["http-blockpage"],),
                     mechanisms=("blockpage-redirect",),
                     blockpage="block.isp-a.pk", label="table5-http"),
            RuleSpec(domains=(TABLE5_SITES["tcp-ip+dns"],),
                     ips_of=(TABLE5_SITES["tcp-ip+dns"],),
                     mechanisms=("dns-servfail", "ip-drop"),
                     label="table5-multi"),
        ),
    )
    policy_b = PolicySpec(
        name="ISP-B",
        rules=(
            # ISP-B's DPI also drops requests addressed to YouTube's IP
            # literally (Host: <ip>), so the ip-as-hostname trick fails
            # there and C-Saw is pushed to domain fronting.
            RuleSpec(domains=("youtube.com",), keywords_ip_of=(YOUTUBE,),
                     mechanisms=("dns-redirect", "http-drop", "tls-drop"),
                     redirect_ip="10.11.12.13", label="youtube-multistage"),
            RuleSpec(mechanisms=("blockpage-iframe",),
                     blockpage="block.isp-b.pk", label="content",
                     **_BLOCKED_CONTENT),
        ),
    )

    urls = {
        "youtube": f"http://{YOUTUBE}/",
        "porn": f"http://{PORN_SITE}/",
        "small-unblocked": f"http://{SMALL_UNBLOCKED}/",
        "large-unblocked": f"http://{LARGE_UNBLOCKED}/",
    }
    urls.update(
        {f"table5/{key}": f"http://{host}/" for key, host in TABLE5_SITES.items()}
    )

    return ScenarioSpec(
        name="pakistan-case-study",
        description="§2.3 distributed censorship: ISP-A block pages vs "
        "ISP-B multi-stage blocking, plus Table-5 calibration sites",
        seed=seed,
        sites=tuple(sites),
        blockpages=(
            BlockpageSpec("block.isp-a.pk"),
            BlockpageSpec("block.isp-b.pk", brand="ISP-B"),
        ),
        policies=(policy_a, policy_b),
        ases=(
            AsSpec(ISP_A_ASN, "ISP-A", policy="ISP-A"),
            AsSpec(ISP_B_ASN, "ISP-B", policy="ISP-B"),
            AsSpec(CLEAN_ASN, "ISP-Clean"),
        ),
        infra=InfraSpec(
            tor_relays=n_tor_relays,
            lantern_proxies=n_lantern_proxies,
            proxy_fleet=with_proxy_fleet,
            front_hostname=FRONT,
        ),
        execution=ExecutionSpec(mode="probe"),
        urls=urls,
    )


def wave_spec(
    seed: int = 5,
    users_per_as: int = 4,
    browse_interval: float = 1800.0,
    duration: float = 36 * 3600.0,
    events: Optional[Sequence[EventSpec]] = None,
    asns: Sequence[int] = WAVE_ASNS,
) -> ScenarioSpec:
    """The §7.5 Twitter/Instagram blocking wave as data."""
    if events is None:
        events = default_wave_events()
    return ScenarioSpec(
        name="blocking-wave",
        description="§7.5 time-varying blocking wave: per-AS events, "
        "C-Saw users producing the global-DB timeline",
        seed=seed,
        sites=(
            SiteSpec(TWITTER, location="us-east", size_bytes=250_000,
                     bandwidth_bps=300e6),
            SiteSpec(INSTAGRAM, location="us-east", size_bytes=500_000,
                     bandwidth_bps=300e6),
        ),
        blockpages=(BlockpageSpec("block.pta.example"),),
        policies=tuple(PolicySpec(name=f"AS{asn}") for asn in asns),
        ases=tuple(AsSpec(asn, f"AS{asn}", policy=f"AS{asn}") for asn in asns),
        infra=InfraSpec(tor_relays=30, lantern_proxies=8),
        populations=(
            PopulationSpec(
                name_format="wave-user-{asn}-{index}",
                per_as=users_per_as,
                transports=("public-dns", "https", "tor", "lantern"),
                config=dict(
                    record_ttl=4 * 3600.0,  # short TTL: re-measure often
                    report_interval=1800.0,
                    download_interval=1800.0,
                ),
            ),
        ),
        workload=WorkloadSpec(
            kind="browse",
            urls=(f"http://{TWITTER}/", f"http://{INSTAGRAM}/"),
            interval=browse_interval,
            start_jitter=600.0,
            stream_prefix="wave",
        ),
        events=tuple(events),
        execution=ExecutionSpec(mode="clients", duration=duration),
        urls={"twitter": f"http://{TWITTER}/", "instagram": f"http://{INSTAGRAM}/"},
    )


def default_wave_events() -> tuple:
    """The paper's snapshot: Twitter first (two ASes, different
    mechanisms), Instagram the next morning via DNS in three ASes."""
    h = 3600.0
    return (
        EventSpec(time=13.5 * h, asn=38193, domain=TWITTER,
                  mechanisms=("http-drop",)),
        EventSpec(time=13.55 * h, asn=17557, domain=TWITTER,
                  mechanisms=("blockpage-redirect",)),
        EventSpec(time=28.8 * h, asn=38193, domain=INSTAGRAM,
                  mechanisms=("dns-redirect", "http-drop")),
        EventSpec(time=33.1 * h, asn=59257, domain=INSTAGRAM,
                  mechanisms=("dns-redirect", "http-drop")),
        EventSpec(time=33.5 * h, asn=45773, domain=INSTAGRAM,
                  mechanisms=("dns-redirect", "http-drop")),
    )
