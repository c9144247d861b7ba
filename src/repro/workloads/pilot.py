"""The deployment/pilot study (§7.4, Table 7), simulated.

The paper released C-Saw to 123 consenting users across residential,
enterprise, and University networks in Pakistan (16 ASes) for three
months, with no target list — users browsed naturally.  We rebuild that:

- a censored region of ``n_ases`` ISPs, each with its own filtering stack
  over the corpus's porn/political/religious domains (mechanism sampled
  per (AS, domain), so the same domain blocks differently across ASes);
- a couple of ISPs additionally block a shared CDN hostname — only ever
  fetched as *embedded objects*, so discovering it requires C-Saw's
  per-URL measurement of page subresources (the paper's CDN finding);
- ``n_users`` C-Saw clients browsing the corpus with a bias toward
  censored content, registering, reporting, and periodically syncing
  with the global database.

:func:`run_pilot` returns a :class:`PilotReport` with the Table-7 rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..censor.blockpages import DEFAULT_BLOCKPAGE_HTML
from ..censor.policy import CensorPolicy, Matcher
from ..circumvent import LanternNetwork, TorNetwork
from ..core import CSawClient, CSawConfig, ServerDB
from ..scenarios.compiler import blockpage_site, build_transports
from ..scenarios.mechanisms import build_rule
from ..simnet.world import World
from ..urlkit import parse_url, registered_domain
from .corpus import Corpus, build_corpus
from .scenarios import BLOCKED_CATEGORIES

__all__ = [
    "PilotConfig",
    "PilotReport",
    "PilotStudy",
    "run_pilot",
    "pilot_sweep",
    "summarize_sweep",
]

# Mechanism mix per (AS, domain); weights target the Table-7 proportions
# (block pages ~48 %, DNS ~38 %, TCP timeouts ~11 %, the rest exotic).
_MECHANISMS: List[Tuple[str, float]] = [
    ("blockpage-redirect", 0.31),
    ("blockpage-iframe", 0.14),
    ("dns-redirect", 0.16),
    ("dns-nxdomain", 0.09),
    ("dns-servfail", 0.09),
    ("dns-timeout", 0.08),
    ("ip-drop", 0.08),
    ("http-drop", 0.05),
]


_BLOCKED_VISIT_BIAS = 3.0  # over-weighting of censored categories
_PAGE_LOAD_FRACTION = 0.15  # full page loads (embedded objects)
_SYNC_INTERVAL = 24 * 3600.0  # report and download cadence
_CDN_BLOCKING_ASES = 2  # ISPs that also block a CDN hostname


@dataclass
class PilotConfig:
    seed: int = 7
    n_users: int = 123
    n_ases: int = 16
    n_sites: int = 1700
    duration_days: float = 90.0
    requests_per_user: int = 80

    def __post_init__(self) -> None:
        # Users are spread over the ASes and browse the corpus, so all
        # three need at least one (no users is an all-zero Table 7); the
        # `not x > 0` form rejects a NaN duration, which would otherwise
        # reach the kernel as a NaN delay.
        if self.n_users < 1:
            raise ValueError(f"n_users must be >= 1: {self.n_users!r}")
        if self.n_ases < 1:
            raise ValueError(f"n_ases must be >= 1: {self.n_ases!r}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1: {self.n_sites!r}")
        if not self.duration_days > 0:
            raise ValueError(
                f"duration_days must be > 0: {self.duration_days!r}"
            )

    @property
    def duration(self) -> float:
        return self.duration_days * 24 * 3600.0


@dataclass
class PilotReport:
    """Table 7 — insights from the deployment study."""

    users: int
    unique_blocked_urls: int
    unique_blocked_domains: int
    unique_ases: int
    distinct_block_types: int
    urls_dns_blocked: int
    urls_tcp_timeout: int
    urls_blockpage: int
    unique_updates: int
    cdn_domains_detected: int
    # Sync-plane traffic: how the periodic pulls split between full
    # snapshots and incremental deltas, and the rows that travelled.
    full_syncs: int = 0
    delta_syncs: int = 0
    sync_rows_received: int = 0
    # Where page-load time went, summed over every client's finished
    # sessions (stage → sim-seconds).  Kept out of :meth:`rows` so the
    # Table-7 tuple shape stays stable.
    plt_stage_seconds: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[Tuple[str, int]]:
        return [
            ("No. of users", self.users),
            ("No. of unique blocked URLs accessed", self.unique_blocked_urls),
            ("No. of unique blocked domains accessed", self.unique_blocked_domains),
            ("No. of unique ASes", self.unique_ases),
            ("Distinct types of blocking observed", self.distinct_block_types),
            ("No. of URLs experiencing DNS blocking", self.urls_dns_blocked),
            ("No. of URLs experiencing TCP connection timeout", self.urls_tcp_timeout),
            ("No. of URLs for which a block page was returned", self.urls_blockpage),
            ("No. of unique updates", self.unique_updates),
            ("CDN domains found blocked (§7.4 finding)", self.cdn_domains_detected),
            ("Full blocked-list syncs served", self.full_syncs),
            ("Delta blocked-list syncs served", self.delta_syncs),
            ("Sync rows transferred", self.sync_rows_received),
        ]


class PilotStudy:
    """Builds and drives the simulated deployment."""

    def __init__(self, config: Optional[PilotConfig] = None):
        self.config = config or PilotConfig()
        self.world = World(seed=self.config.seed)
        self.server = ServerDB(entry_ttl=None)
        self.corpus: Optional[Corpus] = None
        self.clients: List[CSawClient] = []
        self.blocked_domains: List[str] = []
        self.cdn_blocked: List[str] = []

    # -- construction ---------------------------------------------------------

    def build(self) -> "PilotStudy":
        config = self.config
        world = self.world
        rng = world.rngs.stream("pilot")
        world.add_public_resolver()

        self.corpus = build_corpus(
            n_sites=config.n_sites, seed=config.seed, cdn_probability=0.5
        )
        self.corpus.materialize(world)
        self.blocked_domains = self.corpus.domains_in_categories(
            BLOCKED_CATEGORIES
        )

        tor = TorNetwork.build(world, n_relays=40)
        lantern = LanternNetwork.build(world, n_proxies=12)

        # One block-page server per censoring region style.
        blockpage_host = blockpage_site(
            world, "block.pk-filter.example", DEFAULT_BLOCKPAGE_HTML,
            "pakistan",
        )

        ases = []
        for index in range(config.n_ases):
            asn = 30000 + index
            policy = self._build_policy(rng, asn, blockpage_host.ip, index)
            ases.append(world.add_isp(asn, f"PK-ISP-{index}", policy=policy))

        for index in range(config.n_users):
            isp = ases[index % len(ases)]
            name = f"pilot-user-{index}"
            client = CSawClient(
                world,
                name,
                [isp],
                transports=build_transports(
                    name,
                    ("public-dns", "https", "ip-as-hostname", "tor", "lantern"),
                    tor=tor,
                    lantern=lantern,
                ),
                server_db=self.server,
                config=CSawConfig(
                    probe_probability=0.1,
                    report_interval=_SYNC_INTERVAL,
                    download_interval=_SYNC_INTERVAL,
                    record_ttl=14 * 24 * 3600.0,
                ),
            )
            self.clients.append(client)
        return self

    def _build_policy(
        self, rng, asn: int, blockpage_ip: str, index: int
    ) -> CensorPolicy:
        names = [m for m, _w in _MECHANISMS]
        weights = [w for _m, w in _MECHANISMS]
        by_mechanism: Dict[str, Set[str]] = {name: set() for name in names}
        for domain in self.blocked_domains:
            mechanism = rng.choices(names, weights=weights)[0]
            by_mechanism[mechanism].add(domain)
        # A couple of ISPs also block a CDN host (the §7.4 discovery).
        if index < _CDN_BLOCKING_ASES and self.corpus is not None:
            cdn = self.corpus.cdn_hostnames[0]
            by_mechanism["ip-drop"].add(cdn)
            if cdn not in self.cdn_blocked:
                self.cdn_blocked.append(cdn)

        policy = CensorPolicy(name=f"AS{asn}")
        hosts = self.world.network.hosts_by_name
        for mechanism, domains in by_mechanism.items():
            if not domains:
                continue
            # An IP drop also matches the blocked hosts' addresses.
            ips = (
                {hosts[d].ip for d in domains if d in hosts}
                if mechanism == "ip-drop" else set()
            )
            policy.add_rule(
                build_rule(
                    Matcher(domains=set(domains), ips=ips),
                    (mechanism,),
                    blockpage_ip=blockpage_ip,
                    redirect_ip="10.66.66.66",
                    label=mechanism,
                )
            )
        return policy

    # -- driving -----------------------------------------------------------------

    def _user_process(self, client: CSawClient, user_rng):
        world = self.world
        config = self.config
        corpus = self.corpus
        # Staggered install over the first week.
        yield world.env.timeout(user_rng.uniform(0, 7 * 24 * 3600.0))
        yield from client.install()
        client.start_background(until=config.duration)

        n_requests = max(5, int(user_rng.gauss(config.requests_per_user, 20)))
        mean_gap = config.duration / (n_requests + 1)
        for _ in range(n_requests):
            yield world.env.timeout(user_rng.expovariate(1.0 / mean_gap))
            if world.env.now >= config.duration:
                break
            url = self._sample_url(user_rng)
            if user_rng.random() < _PAGE_LOAD_FRACTION:
                yield world.env.process(client.load_page(url))
            else:
                response = yield from client.request(url)
                yield response.measurement_process

    def _sample_url(self, rng) -> str:
        corpus = self.corpus
        site = corpus.sample_site(rng)
        # Bias toward censored content (pilot users sought blocked sites).
        for _ in range(4):
            if site.category in BLOCKED_CATEGORIES:
                break
            if rng.random() < 1.0 / _BLOCKED_VISIT_BIAS:
                break
            site = corpus.sample_site(rng)
        path = rng.choice(site.page_paths)
        return f"http://{site.hostname}{path}"

    def run(self) -> PilotReport:
        if not self.clients:
            self.build()
        world = self.world
        for index, client in enumerate(self.clients):
            user_rng = world.rngs.fork(f"user-{index}").stream("behaviour")
            world.env.process(self._user_process(client, user_rng))
        world.env.run()
        return self.report()

    # -- reporting -----------------------------------------------------------------

    def report(self) -> PilotReport:
        entries = self.server.all_entries()
        urls = {e.url for e in entries}
        reg_domains = {registered_domain(parse_url(e.url).host) for e in entries}
        # Ordered dict-as-sets (the localdb.py idiom): only counts escape
        # today, but hash-ordered sets here would leak into any future
        # listing of block types/URLs in the report.
        block_types: Dict[str, None] = {}
        dns_urls: Dict[str, None] = {}
        tcp_urls: Dict[str, None] = {}
        bp_urls: Dict[str, None] = {}
        for entry in entries:
            for stage in entry.stages:
                block_types[stage.value] = None
                if stage.stage == "dns":
                    dns_urls[entry.url] = None
                elif stage.value == "tcp-timeout":
                    tcp_urls[entry.url] = None
                elif stage.value == "block-page":
                    bp_urls[entry.url] = None
        cdn_detected = {
            parse_url(e.url).host
            for e in entries
            if parse_url(e.url).host in set(self.cdn_blocked)
        }
        reporting = [c.reporting for c in self.clients if c.reporting]
        plt_stage_seconds: Dict[str, float] = {}
        for client in self.clients:
            for stage, seconds in client.measurement.stage_seconds.items():
                plt_stage_seconds[stage] = (
                    plt_stage_seconds.get(stage, 0.0) + seconds
                )
        return PilotReport(
            users=self.server.client_count,
            unique_blocked_urls=len(urls),
            unique_blocked_domains=len(reg_domains),
            unique_ases=len({e.asn for e in entries}),
            distinct_block_types=len(block_types),
            urls_dns_blocked=len(dns_urls),
            urls_tcp_timeout=len(tcp_urls),
            urls_blockpage=len(bp_urls),
            unique_updates=self.server.update_count,
            cdn_domains_detected=len(cdn_detected),
            full_syncs=sum(r.full_syncs for r in reporting),
            delta_syncs=sum(r.delta_syncs for r in reporting),
            sync_rows_received=sum(r.sync_rows_received for r in reporting),
            plt_stage_seconds=plt_stage_seconds,
        )


def run_pilot(config: Optional[PilotConfig] = None) -> PilotReport:
    """Convenience wrapper: build, run, report."""
    return PilotStudy(config).run()


def _pilot_trial(seed: int, **config_kwargs) -> PilotReport:
    """Top-level (picklable) trial body for :func:`pilot_sweep`."""
    return run_pilot(PilotConfig(seed=seed, **config_kwargs))


def pilot_sweep(
    n_trials: int = 3,
    root_seed: int = 7,
    workers: Optional[int] = None,
    **config_kwargs,
) -> List[PilotReport]:
    """Run the pilot study over ``n_trials`` independently-seeded worlds.

    Trials fan out across processes via :mod:`repro.runner` (worker count
    from ``workers`` / ``REPRO_RUNNER_WORKERS`` / CPU count); each world's
    seed is derived from ``(root_seed, trial index)`` so the sweep is
    reproducible for any worker count.  Reports come back in trial order.
    """
    from ..runner import merge_values, run_seed_sweep

    results = run_seed_sweep(
        _pilot_trial, root_seed, n_trials, name="pilot",
        workers=workers, **config_kwargs,
    )
    merged = merge_values(results)
    return [merged[result.name] for result in results]


def summarize_sweep(reports: List[PilotReport]) -> List[Tuple[str, float, int, int]]:
    """Table-7 rows aggregated across a sweep: (label, mean, min, max)."""
    rows: List[Tuple[str, float, int, int]] = []
    per_report = [report.rows() for report in reports]
    for column, (label, _value) in enumerate(per_report[0]):
        values = [rows_[column][1] for rows_ in per_report]
        rows.append((label, sum(values) / len(values), min(values), max(values)))
    return rows
