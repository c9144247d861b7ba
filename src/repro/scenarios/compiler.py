"""ScenarioCompiler: spec tree -> live simulation objects.

The compiler builds in one canonical order — resolver, sites,
block pages, policies, ASes, circumvention infrastructure, global DB,
populations — which is safe because every RNG draw comes from a
name-keyed stream, not from construction order; same-seed worlds are
bit-identical however the spec sections are arranged.

Its three construction pieces are the package's only ones, bar the CLI's
``quickstart`` demo (DESIGN.md §21): :func:`blockpage_site` builds
block-page servers, :func:`~repro.scenarios.mechanisms.build_rule` turns
mechanism names into censor rules, and :func:`build_transports` is the
per-client transport catalogue.  The pilot study, the ONI sweep and the
case-study wrappers call them too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from ..censor.blockpages import DEFAULT_BLOCKPAGE_HTML
from ..censor.policy import CensorPolicy, Matcher, Rule
from ..circumvent import (
    DomainFrontingTransport,
    HoldOnTransport,
    HttpsTransport,
    IpAsHostnameTransport,
    LanternNetwork,
    LanternTransport,
    PublicDnsTransport,
    StaticProxyTransport,
    TorNetwork,
    TorTransport,
    Transport,
    build_proxy_fleet,
)
from ..core import CSawClient, CSawConfig, ServerDB
from ..simnet.rng import RngRegistry
from ..simnet.topology import AutonomousSystem, Host
from ..simnet.web import WebPage
from ..simnet.world import World
from .mechanisms import build_rule
from .spec import EventSpec, RuleSpec, ScenarioSpec, SpecError

__all__ = [
    "CompiledEvent",
    "CompiledScenario",
    "ScenarioCompiler",
    "blockpage_site",
    "build_transports",
]


def blockpage_site(world: World, hostname: str, html: str, location: str) -> Host:
    """A censor block-page server: serves the block page for any path."""
    page_factory = lambda path: WebPage(  # noqa: E731 - tiny closure
        url=f"http://{hostname}{path}",
        size_bytes=max(900, len(html)),
        html=html,
        category="blockpage",
    )
    site = world.web.add_site(
        hostname,
        location=location,
        supports_https=False,
        catch_all=page_factory,
    )
    return site.host


def build_transports(
    client_name: str,
    include: Optional[Sequence[str]] = None,
    *,
    tor: Optional[TorNetwork] = None,
    lantern: Optional[LanternNetwork] = None,
    front_hostname: str = "",
    tor_rotation: float = 600.0,
    tor_exit_location: Optional[str] = None,
) -> List[Transport]:
    """One client's transports from the catalogue, in ``include`` order
    (every entry when ``None``).  Tor circuits and Lantern trust are
    per-user state, so nothing here is shared between clients."""

    def need(what, value):
        if value is None:
            raise SpecError(f"transport needs {what}: declare it under [infra]")
        return value

    catalogue = {
        "public-dns": lambda: PublicDnsTransport(),
        "hold-on": lambda: HoldOnTransport(),
        "https": lambda: HttpsTransport(),
        "ip-as-hostname": lambda: IpAsHostnameTransport(),
        "domain-fronting": lambda: DomainFrontingTransport(
            need("front_hostname", front_hostname or None)
        ),
        "tor": lambda: TorTransport(
            need("tor_relays", tor).client(
                f"tor/{client_name}",
                rotation_period=tor_rotation,
                exit_location=tor_exit_location,
            )
        ),
        "lantern": lambda: LanternTransport(
            need("lantern_proxies", lantern),
            user_stream=f"lantern/{client_name}",
        ),
    }
    names = list(catalogue) if include is None else include
    unknown = [n for n in names if n not in catalogue]
    if unknown:
        raise SpecError(
            f"unknown transport(s) {unknown} "
            f"(known: {', '.join(sorted(catalogue))})"
        )
    return [catalogue[name]() for name in names]


@dataclass(frozen=True)
class CompiledEvent:
    """One resolved blocking event, ready to install at ``time``."""

    time: float
    asn: int
    domain: str
    rule: Rule
    policy: CensorPolicy


@dataclass
class CompiledScenario:
    """Everything a runner (or a legacy wrapper) needs, in one bundle."""

    spec: ScenarioSpec
    world: World
    server: Optional[ServerDB]
    policies: Dict[str, CensorPolicy]
    isps: Dict[int, AutonomousSystem]
    blockpages: Dict[str, Host]
    tor: Optional[TorNetwork]
    lantern: Optional[LanternNetwork]
    proxies: List[StaticProxyTransport]
    clients: List[CSawClient] = field(default_factory=list)
    events: List[CompiledEvent] = field(default_factory=list)


class ScenarioCompiler:
    """Turns a :class:`ScenarioSpec` into a :class:`CompiledScenario`."""

    @staticmethod
    def compile_planes(spec: ScenarioSpec) -> Optional[list]:
        """Build the spec's ``[[planes]]`` mix into live plane objects.

        Cohort mode bypasses :meth:`compile` (no ``World`` is built), but
        the compiler stays the only layer that turns spec sections into
        live simulation objects — the runner calls this instead of
        touching the plane registry itself.  Returns ``None`` when no
        mix is declared, which lets :class:`~repro.core.fleet.ClientCohort`
        fall back to its single default C-Saw plane.
        """
        if not spec.planes:
            return None
        from ..planes import build_plane

        return [
            build_plane({k: v for k, v in asdict(plane).items() if v is not None})
            for plane in spec.planes
        ]

    def compile(self, spec: ScenarioSpec) -> CompiledScenario:
        spec.validate()
        world = World(seed=spec.seed)
        if spec.infra.public_resolver:
            world.add_public_resolver()

        for site in spec.sites:
            kwargs = dict(
                location=site.location,
                supports_https=site.supports_https,
                supports_fronting=site.supports_fronting,
            )
            if site.bandwidth_bps > 0:
                kwargs["bandwidth_bps"] = site.bandwidth_bps
            if site.geo_blocked:
                kwargs["geo_blocked"] = set(site.geo_blocked)
            world.web.add_site(site.hostname, **kwargs)
            world.web.add_page(
                f"http://{site.hostname}/",
                size_bytes=site.size_bytes,
                category=site.category,
            )

        blockpages: Dict[str, Host] = {}
        for page in spec.blockpages:
            html = DEFAULT_BLOCKPAGE_HTML
            if page.brand:
                html = html.replace("ISP-A", page.brand)
            blockpages[page.hostname] = blockpage_site(
                world, page.hostname, html, page.location
            )

        policies: Dict[str, CensorPolicy] = {}
        for i, policy_spec in enumerate(spec.policies):
            policy = CensorPolicy(name=policy_spec.name)
            for j, rule_spec in enumerate(policy_spec.rules):
                policy.add_rule(
                    self._compile_rule(
                        rule_spec, world, blockpages, spec,
                        where=f"policies[{i}].rules[{j}]",
                    )
                )
            policies[policy_spec.name] = policy

        isps: Dict[int, AutonomousSystem] = {}
        for as_spec in spec.ases:
            isps[as_spec.asn] = world.add_isp(
                as_spec.asn,
                as_spec.name,
                country=as_spec.country,
                policy=policies[as_spec.policy] if as_spec.policy else None,
            )

        tor = (
            TorNetwork.build(world, n_relays=spec.infra.tor_relays)
            if spec.infra.tor_relays > 0
            else None
        )
        lantern = (
            LanternNetwork.build(world, n_proxies=spec.infra.lantern_proxies)
            if spec.infra.lantern_proxies > 0
            else None
        )
        proxies = build_proxy_fleet(world) if spec.infra.proxy_fleet else []

        compiled = CompiledScenario(
            spec=spec,
            world=world,
            server=ServerDB(entry_ttl=None) if spec.populations else None,
            policies=policies,
            isps=isps,
            blockpages=blockpages,
            tor=tor,
            lantern=lantern,
            proxies=proxies,
        )
        self._compile_populations(compiled)
        self._compile_events(compiled)
        return compiled

    # -- pieces ---------------------------------------------------------------

    def _compile_rule(
        self,
        rule: RuleSpec,
        world: World,
        blockpages: Dict[str, Host],
        spec: ScenarioSpec,
        where: str,
    ) -> Rule:
        hosts = world.network.hosts_by_name

        def ip_of(hostname: str) -> str:
            host = hosts.get(hostname)
            if host is None:
                raise SpecError(
                    f"{where}: no host {hostname!r} (declare it under [[sites]])"
                )
            return host.ip

        matcher_kwargs = {}
        if rule.domains:
            matcher_kwargs["domains"] = set(rule.domains)
        keywords = set(rule.keywords)
        keywords.update(ip_of(h) for h in rule.keywords_ip_of)
        if keywords:
            matcher_kwargs["keywords"] = keywords
        if rule.url_prefixes:
            matcher_kwargs["url_prefixes"] = set(rule.url_prefixes)
        ips = set(rule.ips)
        ips.update(ip_of(h) for h in rule.ips_of)
        if ips:
            matcher_kwargs["ips"] = ips

        return build_rule(
            Matcher(**matcher_kwargs),
            rule.mechanisms,
            blockpage_ip=self._blockpage_ip(rule.blockpage, blockpages, spec, where),
            redirect_ip=rule.redirect_ip or None,
            label=rule.label,
            where=where,
        )

    @staticmethod
    def _blockpage_ip(
        ref: str, blockpages: Dict[str, Host], spec: ScenarioSpec, where: str
    ) -> Optional[str]:
        if ref:
            return blockpages[ref].ip  # validated by spec.validate()
        if spec.blockpages:
            return blockpages[spec.blockpages[0].hostname].ip
        return None

    def _compile_populations(self, compiled: CompiledScenario) -> None:
        spec = compiled.spec
        for i, population in enumerate(spec.populations):
            config = (
                CSawConfig(**population.config)
                if population.config
                else CSawConfig()
            )
            asns = population.ases or tuple(a.asn for a in spec.ases)
            for asn in asns:
                isp = compiled.isps[asn]
                for index in range(population.per_as):
                    name = population.name_format.format(asn=asn, index=index)
                    compiled.clients.append(
                        CSawClient(
                            compiled.world,
                            name,
                            [isp],
                            transports=build_transports(
                                name,
                                population.transports,
                                tor=compiled.tor,
                                lantern=compiled.lantern,
                                front_hostname=spec.infra.front_hostname,
                            ),
                            server_db=compiled.server,
                            config=config,
                            location=population.location,
                        )
                    )

    def _compile_events(self, compiled: CompiledScenario) -> None:
        spec = compiled.spec
        event_specs: List[EventSpec] = list(spec.events)
        if spec.rolling is not None:
            rolling = spec.rolling
            rng = RngRegistry(seed=spec.seed).stream(rolling.stream)
            for asn in rolling.asns:
                offset = rng.uniform(0.0, rolling.lag)
                for domain in rolling.domains:
                    event_specs.append(
                        EventSpec(
                            time=rolling.start + offset,
                            asn=asn,
                            domain=domain,
                            mechanisms=rolling.mechanisms,
                            redirect_ip=rolling.redirect_ip,
                            blockpage=rolling.blockpage,
                        )
                    )
        for i, event in enumerate(event_specs):
            as_spec = next(a for a in spec.ases if a.asn == event.asn)
            if not as_spec.policy:
                raise SpecError(
                    f"events[{i}]: AS {event.asn} has no policy to install "
                    "rules into (give it an empty [[policies]] entry)"
                )
            rule = build_rule(
                Matcher(domains={event.domain}),
                event.mechanisms,
                blockpage_ip=self._blockpage_ip(
                    event.blockpage, compiled.blockpages, spec, f"events[{i}]"
                ),
                redirect_ip=event.redirect_ip or None,
                label=event.label or event.domain,
                where=f"events[{i}]",
            )
            compiled.events.append(
                CompiledEvent(
                    time=event.time,
                    asn=event.asn,
                    domain=event.domain,
                    rule=rule,
                    policy=compiled.policies[as_spec.policy],
                )
            )
        compiled.events.sort(key=lambda e: e.time)
