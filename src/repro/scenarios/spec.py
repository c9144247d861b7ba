"""The declarative scenario vocabulary: :class:`ScenarioSpec`.

A scenario is *data*: which sites exist, which ASes censor what and how,
who browses, what gets blocked when, and — crucially — what the
experiment is *expected* to conclude.  The compiler
(:mod:`repro.scenarios.compiler`) turns a spec into live
``World``/``CensorPolicy``/``CSawClient`` objects; the runner
(:mod:`repro.scenarios.runner`) executes it; :mod:`repro.scenarios.expect`
diffs the observed verdicts against the ``expect`` section.

Specs load from plain dicts (:meth:`ScenarioSpec.from_dict`) or TOML
files (:meth:`ScenarioSpec.from_toml`).  Every shipped pack under
``scenarios/packs/`` is one such file; ICLab-style, a new censorship
setting is a data file, not a 200-line builder function.

TOML parsing prefers :mod:`tomllib` (Python ≥ 3.11) and falls back to a
small subset parser so the 3.9/3.10 CI matrix needs no third-party
dependency.  The subset covers what packs use: ``[table]``,
``[[array-of-tables]]``, nested dotted headers, strings, ints, floats,
booleans, and homogeneous arrays.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "SpecError",
    "SiteSpec",
    "BlockpageSpec",
    "RuleSpec",
    "PolicySpec",
    "AsSpec",
    "InfraSpec",
    "PopulationSpec",
    "WorkloadSpec",
    "EventSpec",
    "RollingSpec",
    "CohortSpec",
    "AttackGroupSpec",
    "AttackSpec",
    "ExecutionSpec",
    "VerdictExpect",
    "ClassificationExpect",
    "DetectionExpect",
    "FleetExpect",
    "ReputationExpect",
    "ExpectSpec",
    "ScenarioSpec",
    "load_toml_file",
]


class SpecError(ValueError):
    """A scenario spec that cannot mean anything: bad key, bad value,
    dangling reference.  The message always names the offending path."""


# -- dict -> dataclass plumbing ------------------------------------------------


def _take(data: Dict[str, Any], where: str):
    """Bind a section dict; returns (pop, done) accessors that track
    unknown keys so typos fail loudly instead of silently defaulting."""
    remaining = dict(data)

    def pop(key: str, default: Any = None) -> Any:
        return remaining.pop(key, default)

    def done() -> None:
        if remaining:
            raise SpecError(f"{where}: unknown key(s) {sorted(remaining)}")

    return pop, done


def _str_tuple(value: Any, where: str) -> Tuple[str, ...]:
    if value is None:
        return ()
    if isinstance(value, str):
        raise SpecError(f"{where}: expected a list of strings, got {value!r}")
    return tuple(str(v) for v in value)


def _int_tuple(value: Any, where: str) -> Tuple[int, ...]:
    if value is None:
        return ()
    return tuple(int(v) for v in value)


def _as_float(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise SpecError(f"{where}: expected a boolean, got {value!r}")
    return value


def _sections(value: Any, where: str) -> List[Dict[str, Any]]:
    if value is None:
        return []
    if not isinstance(value, list) or any(not isinstance(v, dict) for v in value):
        raise SpecError(f"{where}: expected a list of tables")
    return value


# -- world vocabulary ----------------------------------------------------------


@dataclass(frozen=True)
class SiteSpec:
    """One web site with a single root page."""

    hostname: str
    location: str = "us-east"
    size_bytes: int = 100_000
    category: str = "general"
    supports_https: bool = True
    supports_fronting: bool = False
    bandwidth_bps: float = 0.0  # 0 -> the Web layer's default
    geo_blocked: Tuple[str, ...] = ()  # server-side §8 filtering regions

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "SiteSpec":
        pop, done = _take(data, where)
        hostname = pop("hostname")
        if not hostname:
            raise SpecError(f"{where}: 'hostname' is required")
        spec = cls(
            hostname=str(hostname),
            location=str(pop("location", cls.location)),
            size_bytes=int(pop("size_bytes", cls.size_bytes)),
            category=str(pop("category", cls.category)),
            supports_https=_as_bool(pop("supports_https", cls.supports_https), where),
            supports_fronting=_as_bool(
                pop("supports_fronting", cls.supports_fronting), where
            ),
            bandwidth_bps=_as_float(pop("bandwidth_bps", 0.0), where),
            geo_blocked=_str_tuple(pop("geo_blocked"), f"{where}.geo_blocked"),
        )
        done()
        return spec


@dataclass(frozen=True)
class BlockpageSpec:
    """A censor-run block-page server (serves any path via catch-all)."""

    hostname: str
    location: str = "pakistan"
    # "" -> the stock DEFAULT_BLOCKPAGE_HTML; anything else rebrands it
    # (the Pakistan world serves an "ISP-B"-branded page from ISP-B).
    brand: str = ""

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "BlockpageSpec":
        pop, done = _take(data, where)
        hostname = pop("hostname")
        if not hostname:
            raise SpecError(f"{where}: 'hostname' is required")
        spec = cls(
            hostname=str(hostname),
            location=str(pop("location", cls.location)),
            brand=str(pop("brand", "")),
        )
        done()
        return spec


@dataclass(frozen=True)
class RuleSpec:
    """One censor rule: a matcher plus one mechanism per stage.

    ``ips_of`` / ``keywords_ip_of`` are resolved by the compiler to the
    concrete IPs the world assigned to those hostnames — the declarative
    counterpart of ``world.network.hosts_by_name[h].ip`` in the old
    imperative builders.
    """

    mechanisms: Tuple[str, ...]
    domains: Tuple[str, ...] = ()
    keywords: Tuple[str, ...] = ()
    url_prefixes: Tuple[str, ...] = ()
    ips: Tuple[str, ...] = ()
    ips_of: Tuple[str, ...] = ()
    keywords_ip_of: Tuple[str, ...] = ()
    blockpage: str = ""  # hostname ref into [[blockpages]]; "" -> first
    redirect_ip: str = ""
    label: str = ""

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "RuleSpec":
        pop, done = _take(data, where)
        spec = cls(
            mechanisms=_str_tuple(pop("mechanisms"), f"{where}.mechanisms"),
            domains=_str_tuple(pop("domains"), f"{where}.domains"),
            keywords=_str_tuple(pop("keywords"), f"{where}.keywords"),
            url_prefixes=_str_tuple(pop("url_prefixes"), f"{where}.url_prefixes"),
            ips=_str_tuple(pop("ips"), f"{where}.ips"),
            ips_of=_str_tuple(pop("ips_of"), f"{where}.ips_of"),
            keywords_ip_of=_str_tuple(
                pop("keywords_ip_of"), f"{where}.keywords_ip_of"
            ),
            blockpage=str(pop("blockpage", "")),
            redirect_ip=str(pop("redirect_ip", "")),
            label=str(pop("label", "")),
        )
        done()
        if not spec.mechanisms:
            raise SpecError(f"{where}: 'mechanisms' must list at least one mechanism")
        if not (
            spec.domains
            or spec.keywords
            or spec.url_prefixes
            or spec.ips
            or spec.ips_of
            or spec.keywords_ip_of
        ):
            raise SpecError(f"{where}: matcher needs at least one criterion")
        return spec


@dataclass(frozen=True)
class PolicySpec:
    """An ordered first-match rule list; shared between ASes by name
    (one PolicySpec referenced by many ASes = centralized censorship)."""

    name: str
    rules: Tuple[RuleSpec, ...] = ()

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "PolicySpec":
        pop, done = _take(data, where)
        name = pop("name")
        if not name:
            raise SpecError(f"{where}: 'name' is required")
        rules = tuple(
            RuleSpec.from_dict(r, f"{where}.rules[{i}]")
            for i, r in enumerate(_sections(pop("rules"), f"{where}.rules"))
        )
        done()
        return cls(name=str(name), rules=rules)


@dataclass(frozen=True)
class AsSpec:
    asn: int
    name: str = ""
    country: str = "pakistan"
    policy: str = ""  # ref into [[policies]]; "" -> uncensored

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "AsSpec":
        pop, done = _take(data, where)
        asn = pop("asn")
        if asn is None:
            raise SpecError(f"{where}: 'asn' is required")
        asn = int(asn)
        spec = cls(
            asn=asn,
            name=str(pop("name", "")) or f"AS{asn}",
            country=str(pop("country", cls.country)),
            policy=str(pop("policy", "")),
        )
        done()
        return spec


@dataclass(frozen=True)
class InfraSpec:
    """Shared circumvention infrastructure."""

    public_resolver: bool = True
    tor_relays: int = 0
    lantern_proxies: int = 0
    proxy_fleet: bool = False  # the ten Table-2 static proxies
    front_hostname: str = ""  # CDN front for domain-fronting transports

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "InfraSpec":
        pop, done = _take(data, where)
        spec = cls(
            public_resolver=_as_bool(pop("public_resolver", True), where),
            tor_relays=int(pop("tor_relays", 0)),
            lantern_proxies=int(pop("lantern_proxies", 0)),
            proxy_fleet=_as_bool(pop("proxy_fleet", False), where),
            front_hostname=str(pop("front_hostname", "")),
        )
        done()
        return spec


# -- people and behaviour ------------------------------------------------------


@dataclass(frozen=True)
class PopulationSpec:
    """A batch of C-Saw clients, ``per_as`` in each listed AS."""

    name_format: str = "user-{asn}-{index}"
    per_as: int = 1
    ases: Tuple[int, ...] = ()  # empty -> every AS in the spec
    transports: Tuple[str, ...] = ("public-dns", "https", "tor", "lantern")
    location: str = "pakistan"
    config: Dict[str, Any] = field(default_factory=dict)  # CSawConfig overrides

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "PopulationSpec":
        pop, done = _take(data, where)
        config = pop("config", {})
        if not isinstance(config, dict):
            raise SpecError(f"{where}.config: expected a table")
        spec = cls(
            name_format=str(pop("name_format", cls.name_format)),
            per_as=int(pop("per_as", cls.per_as)),
            ases=_int_tuple(pop("ases"), f"{where}.ases"),
            transports=_str_tuple(pop("transports", list(cls.transports)),
                                  f"{where}.transports"),
            location=str(pop("location", cls.location)),
            config=dict(config),
        )
        done()
        return spec


@dataclass(frozen=True)
class WorkloadSpec:
    """What the populations do: browse ``urls`` with exponential
    think-time, after a uniform start jitter (the §7.5 wave shape)."""

    kind: str = "browse"
    urls: Tuple[str, ...] = ()
    interval: float = 1800.0
    start_jitter: float = 600.0
    # Per-client behaviour RNG forks as "{stream_prefix}-{client_index}",
    # mirroring the legacy wave driver so same-seed runs are identical.
    stream_prefix: str = "wave"

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "WorkloadSpec":
        pop, done = _take(data, where)
        spec = cls(
            kind=str(pop("kind", cls.kind)),
            urls=_str_tuple(pop("urls"), f"{where}.urls"),
            interval=_as_float(pop("interval", cls.interval), where),
            start_jitter=_as_float(pop("start_jitter", cls.start_jitter), where),
            stream_prefix=str(pop("stream_prefix", cls.stream_prefix)),
        )
        done()
        if spec.kind not in ("browse", "none"):
            raise SpecError(f"{where}.kind: unknown workload kind {spec.kind!r}")
        return spec


@dataclass(frozen=True)
class EventSpec:
    """A timed censor action: at ``time``, AS ``asn`` starts applying
    ``mechanisms`` to ``domain``."""

    time: float
    asn: int
    domain: str
    mechanisms: Tuple[str, ...] = ("blockpage-redirect",)
    redirect_ip: str = "10.66.66.66"
    blockpage: str = ""  # "" -> first declared blockpage
    label: str = ""  # "" -> the domain

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "EventSpec":
        pop, done = _take(data, where)
        time = pop("time")
        asn = pop("asn")
        domain = pop("domain")
        if time is None or asn is None or not domain:
            raise SpecError(f"{where}: 'time', 'asn' and 'domain' are required")
        spec = cls(
            time=_as_float(time, f"{where}.time"),
            asn=int(asn),
            domain=str(domain),
            mechanisms=_str_tuple(
                pop("mechanisms", list(cls.mechanisms)), f"{where}.mechanisms"
            ),
            redirect_ip=str(pop("redirect_ip", cls.redirect_ip)),
            blockpage=str(pop("blockpage", "")),
            label=str(pop("label", "")),
        )
        done()
        return spec


@dataclass(frozen=True)
class RollingSpec:
    """A national directive enforced with per-ISP lag: each AS draws its
    own offset in ``U[0, lag]`` from a seed-derived stream and applies
    every domain at ``start + offset`` (the §7.5 staggered rollout as
    data)."""

    domains: Tuple[str, ...]
    asns: Tuple[int, ...]
    start: float = 0.0
    lag: float = 3600.0
    mechanisms: Tuple[str, ...] = ("blockpage-redirect",)
    redirect_ip: str = "10.66.66.66"
    blockpage: str = ""
    stream: str = "staggered-rollout"

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "RollingSpec":
        pop, done = _take(data, where)
        spec = cls(
            domains=_str_tuple(pop("domains"), f"{where}.domains"),
            asns=_int_tuple(pop("asns"), f"{where}.asns"),
            start=_as_float(pop("start", 0.0), where),
            lag=_as_float(pop("lag", cls.lag), where),
            mechanisms=_str_tuple(
                pop("mechanisms", list(cls.mechanisms)), f"{where}.mechanisms"
            ),
            redirect_ip=str(pop("redirect_ip", cls.redirect_ip)),
            blockpage=str(pop("blockpage", "")),
            stream=str(pop("stream", cls.stream)),
        )
        done()
        if not spec.domains or not spec.asns:
            raise SpecError(f"{where}: 'domains' and 'asns' must be non-empty")
        return spec


@dataclass(frozen=True)
class CohortSpec:
    """Fleet-scale parameters, mapped onto :func:`core.fleet.run_fleet_storm`."""

    n_ases: int = 4
    clients_per_as: int = 500
    reporter_fraction: float = 0.01
    urls_per_as: int = 10
    pull_interval: float = 600.0
    wave_at: float = 300.0
    wave_stagger: float = 0.0  # roll the wave's per-AS onsets over this span
    horizon: float = 0.0  # 0 -> the fleet layer's default
    asn_base: int = 40000
    sharded: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "CohortSpec":
        pop, done = _take(data, where)
        spec = cls(
            n_ases=int(pop("n_ases", cls.n_ases)),
            clients_per_as=int(pop("clients_per_as", cls.clients_per_as)),
            reporter_fraction=_as_float(
                pop("reporter_fraction", cls.reporter_fraction), where
            ),
            urls_per_as=int(pop("urls_per_as", cls.urls_per_as)),
            pull_interval=_as_float(pop("pull_interval", cls.pull_interval), where),
            wave_at=_as_float(pop("wave_at", cls.wave_at), where),
            wave_stagger=_as_float(pop("wave_stagger", 0.0), where),
            horizon=_as_float(pop("horizon", 0.0), where),
            asn_base=int(pop("asn_base", cls.asn_base)),
            sharded=_as_bool(pop("sharded", False), where),
        )
        done()
        if spec.clients_per_as < 1:
            raise SpecError(f"{where}.clients_per_as: must be >= 1")
        if not 0.0 < spec.reporter_fraction <= 1.0:
            raise SpecError(f"{where}.reporter_fraction: must be in (0, 1]")
        if not spec.pull_interval > 0.0:
            raise SpecError(f"{where}.pull_interval: must be > 0")
        if spec.wave_stagger < 0.0:
            raise SpecError(f"{where}.wave_stagger: must be >= 0")
        return spec


@dataclass(frozen=True)
class PlaneSpec:
    """One measurement plane in a cohort's mix (``[[planes]]``).

    ``kind`` picks the implementation from the :mod:`repro.planes`
    registry; ``fraction`` sizes the plane's reporter subpopulation;
    ``weight`` is the plane's vote weight in the per-plane-aware
    confidence criterion (1.0 = full trust).  The remaining knobs only
    apply to the kinds that read them: ``miss_rate`` (encore blockpage
    misclassification), ``probe_interval``/``coverage``/``list_size``/
    ``corpus_sites`` (problist scheduling and list-generation recall).
    """

    name: str
    kind: str
    fraction: float
    weight: float = 1.0
    miss_rate: float = 0.2
    probe_interval: float = 600.0
    coverage: float = 0.7
    list_size: int = 50
    corpus_sites: int = 120

    KINDS = ("csaw", "encore", "problist")

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "PlaneSpec":
        pop, done = _take(data, where)
        kind = pop("kind")
        if kind not in cls.KINDS:
            raise SpecError(
                f"{where}.kind: {kind!r} not in {'|'.join(cls.KINDS)}"
            )
        spec = cls(
            name=str(pop("name", kind)),
            kind=str(kind),
            fraction=_as_float(pop("fraction", 0.01), where),
            weight=_as_float(pop("weight", 1.0), where),
            miss_rate=_as_float(pop("miss_rate", cls.miss_rate), where),
            probe_interval=_as_float(
                pop("probe_interval", cls.probe_interval), where
            ),
            coverage=_as_float(pop("coverage", cls.coverage), where),
            list_size=int(pop("list_size", cls.list_size)),
            corpus_sites=int(pop("corpus_sites", cls.corpus_sites)),
        )
        done()
        if not 0.0 < spec.fraction <= 1.0:
            raise SpecError(f"{where}.fraction: must be in (0, 1]")
        if not 0.0 <= spec.weight <= 1.0:
            raise SpecError(f"{where}.weight: must be in [0, 1]")
        if not 0.0 <= spec.miss_rate < 1.0:
            raise SpecError(f"{where}.miss_rate: must be in [0, 1)")
        if not 0.0 < spec.coverage <= 1.0:
            raise SpecError(f"{where}.coverage: must be in (0, 1]")
        return spec

    def as_dict(self) -> Dict[str, Any]:
        """The mapping the planes registry's ``build_plane`` consumes."""
        return {
            "name": self.name,
            "kind": self.kind,
            "fraction": self.fraction,
            "miss_rate": self.miss_rate,
            "probe_interval": self.probe_interval,
            "coverage": self.coverage,
            "list_size": self.list_size,
            "corpus_sites": self.corpus_sites,
        }


@dataclass(frozen=True)
class AttackGroupSpec:
    """One reporter population in an attack scenario.

    Roles: ``honest`` clients sample ``urls_each`` from a shared pool of
    ``pool_size`` real URLs (organic corroboration); ``flood`` clients
    each fabricate their own distinct URLs (high volume, zero
    corroboration); ``clique`` clients all report one identical
    fabricated set (Sybil ring: pairwise similarity 1.0).
    """

    name: str
    role: str
    clients: int
    urls_each: int
    pool_size: int = 0

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "AttackGroupSpec":
        pop, done = _take(data, where)
        name = pop("name")
        role = pop("role")
        if not name or role not in ("honest", "flood", "clique"):
            raise SpecError(
                f"{where}: needs 'name' and role in honest|flood|clique"
            )
        spec = cls(
            name=str(name),
            role=str(role),
            clients=int(pop("clients", 1)),
            urls_each=int(pop("urls_each", 1)),
            pool_size=int(pop("pool_size", 0)),
        )
        done()
        if spec.role == "honest" and spec.pool_size < spec.urls_each:
            raise SpecError(f"{where}: honest pool_size must be >= urls_each")
        return spec


@dataclass(frozen=True)
class AttackSpec:
    """Adversarial reporting straight at ``ServerDB`` + the voting
    ledger, judged by :class:`~repro.core.reputation.ReputationAnalyzer`."""

    groups: Tuple[AttackGroupSpec, ...]
    asn: int = 64999
    min_volume: int = 30
    max_corroboration: float = 0.2
    clique_similarity: float = 0.9
    enforce: bool = True  # revoke flagged reporters after analysis

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "AttackSpec":
        pop, done = _take(data, where)
        groups = tuple(
            AttackGroupSpec.from_dict(g, f"{where}.groups[{i}]")
            for i, g in enumerate(_sections(pop("groups"), f"{where}.groups"))
        )
        spec = cls(
            groups=groups,
            asn=int(pop("asn", cls.asn)),
            min_volume=int(pop("min_volume", cls.min_volume)),
            max_corroboration=_as_float(
                pop("max_corroboration", cls.max_corroboration), where
            ),
            clique_similarity=_as_float(
                pop("clique_similarity", cls.clique_similarity), where
            ),
            enforce=_as_bool(pop("enforce", True), where),
        )
        done()
        if not spec.groups:
            raise SpecError(f"{where}: at least one group is required")
        return spec


@dataclass(frozen=True)
class ExecutionSpec:
    """How to run: mode auto|clients|probe|cohort|attack, plus the sim
    horizon for client workloads."""

    mode: str = "auto"
    duration: float = 36 * 3600.0

    MODES = ("auto", "clients", "probe", "cohort", "attack")

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "ExecutionSpec":
        pop, done = _take(data, where)
        spec = cls(
            mode=str(pop("mode", "auto")),
            duration=_as_float(pop("duration", cls.duration), where),
        )
        done()
        if spec.mode not in cls.MODES:
            raise SpecError(
                f"{where}.mode: {spec.mode!r} not in {'|'.join(cls.MODES)}"
            )
        return spec


# -- expectations --------------------------------------------------------------


@dataclass(frozen=True)
class VerdictExpect:
    """Direct-path verdict for ``url`` probed from inside ``asn``."""

    url: str
    asn: int
    status: str  # "blocked" | "not-blocked"
    stages: Tuple[str, ...] = ()  # empty -> status-only check
    suspected_blockpage: Optional[bool] = None

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "VerdictExpect":
        pop, done = _take(data, where)
        url, asn, status = pop("url"), pop("asn"), pop("status")
        if not url or asn is None or not status:
            raise SpecError(f"{where}: 'url', 'asn' and 'status' are required")
        suspected = pop("suspected_blockpage", None)
        if suspected is not None:
            suspected = _as_bool(suspected, f"{where}.suspected_blockpage")
        spec = cls(
            url=str(url),
            asn=int(asn),
            status=str(status),
            stages=_str_tuple(pop("stages"), f"{where}.stages"),
            suspected_blockpage=suspected,
        )
        done()
        if spec.status not in ("blocked", "not-blocked"):
            raise SpecError(
                f"{where}.status: {spec.status!r} not in blocked|not-blocked"
            )
        return spec


@dataclass(frozen=True)
class ClassificationExpect:
    """Cross-vantage diagnosis for one URL, probed from *every* AS in
    the spec: ``censorship`` (on-path, vantage-dependent),
    ``geoblocking`` (server-side filtering at every vantage), or
    ``open``."""

    url: str
    verdict: str

    CLASSES = ("censorship", "geoblocking", "open")

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "ClassificationExpect":
        pop, done = _take(data, where)
        url, verdict = pop("url"), pop("verdict")
        done()
        if not url or verdict not in cls.CLASSES:
            raise SpecError(
                f"{where}: needs 'url' and verdict in {'|'.join(cls.CLASSES)}"
            )
        return cls(url=str(url), verdict=str(verdict))


@dataclass(frozen=True)
class DetectionExpect:
    """The crowd must notice: some global-DB observation of ``domain``
    from ``asn`` no earlier than the matching blocking event and (when
    ``within`` > 0) no later than ``within`` seconds after it."""

    domain: str
    asn: int
    within: float = 0.0  # 0 -> any time after onset
    symptom: str = ""  # "" -> any symptom label

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "DetectionExpect":
        pop, done = _take(data, where)
        domain, asn = pop("domain"), pop("asn")
        if not domain or asn is None:
            raise SpecError(f"{where}: 'domain' and 'asn' are required")
        spec = cls(
            domain=str(domain),
            asn=int(asn),
            within=_as_float(pop("within", 0.0), where),
            symptom=str(pop("symptom", "")),
        )
        done()
        return spec


@dataclass(frozen=True)
class FleetExpect:
    all_converge: bool = True
    max_convergence: float = 0.0  # 0 -> unchecked
    min_reports: int = 0

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "FleetExpect":
        pop, done = _take(data, where)
        spec = cls(
            all_converge=_as_bool(pop("all_converge", True), where),
            max_convergence=_as_float(pop("max_convergence", 0.0), where),
            min_reports=int(pop("min_reports", 0)),
        )
        done()
        return spec


@dataclass(frozen=True)
class PlaneExpect:
    """Per-plane report provenance and convergence checks for one plane
    of a cohort storm (``[[expect.plane]]``)."""

    name: str
    min_reports: int = 1
    max_reports: int = 0  # 0 -> unchecked
    all_converge: bool = False

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "PlaneExpect":
        pop, done = _take(data, where)
        name = pop("name")
        if not name:
            raise SpecError(f"{where}: 'name' is required")
        spec = cls(
            name=str(name),
            min_reports=int(pop("min_reports", 1)),
            max_reports=int(pop("max_reports", 0)),
            all_converge=_as_bool(pop("all_converge", False), where),
        )
        done()
        return spec


@dataclass(frozen=True)
class ReputationExpect:
    flagged_groups: Tuple[str, ...] = ()
    clean_groups: Tuple[str, ...] = ()
    fabricated_removed: bool = True  # flood/clique URLs evicted post-enforce
    honest_survive: bool = True  # honest URLs still present post-enforce

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "ReputationExpect":
        pop, done = _take(data, where)
        spec = cls(
            flagged_groups=_str_tuple(
                pop("flagged_groups"), f"{where}.flagged_groups"
            ),
            clean_groups=_str_tuple(pop("clean_groups"), f"{where}.clean_groups"),
            fabricated_removed=_as_bool(pop("fabricated_removed", True), where),
            honest_survive=_as_bool(pop("honest_survive", True), where),
        )
        done()
        return spec


@dataclass(frozen=True)
class ExpectSpec:
    verdicts: Tuple[VerdictExpect, ...] = ()
    classifications: Tuple[ClassificationExpect, ...] = ()
    detections: Tuple[DetectionExpect, ...] = ()
    min_observations: int = 0
    fleet: Optional[FleetExpect] = None
    reputation: Optional[ReputationExpect] = None
    planes: Tuple[PlaneExpect, ...] = ()

    @classmethod
    def from_dict(cls, data: Dict[str, Any], where: str) -> "ExpectSpec":
        pop, done = _take(data, where)
        fleet = pop("fleet")
        reputation = pop("reputation")
        spec = cls(
            verdicts=tuple(
                VerdictExpect.from_dict(v, f"{where}.verdict[{i}]")
                for i, v in enumerate(_sections(pop("verdict"), f"{where}.verdict"))
            ),
            classifications=tuple(
                ClassificationExpect.from_dict(c, f"{where}.classification[{i}]")
                for i, c in enumerate(
                    _sections(pop("classification"), f"{where}.classification")
                )
            ),
            detections=tuple(
                DetectionExpect.from_dict(d, f"{where}.detection[{i}]")
                for i, d in enumerate(
                    _sections(pop("detection"), f"{where}.detection")
                )
            ),
            min_observations=int(pop("min_observations", 0)),
            fleet=FleetExpect.from_dict(fleet, f"{where}.fleet") if fleet else None,
            reputation=(
                ReputationExpect.from_dict(reputation, f"{where}.reputation")
                if reputation
                else None
            ),
            planes=tuple(
                PlaneExpect.from_dict(p, f"{where}.plane[{i}]")
                for i, p in enumerate(
                    _sections(pop("plane"), f"{where}.plane")
                )
            ),
        )
        done()
        return spec

    @property
    def empty(self) -> bool:
        return not (
            self.verdicts
            or self.classifications
            or self.detections
            or self.min_observations
            or self.fleet
            or self.reputation
            or self.planes
        )


# -- the scenario itself -------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, runnable, checkable censorship scenario."""

    name: str
    description: str = ""
    seed: int = 1
    sites: Tuple[SiteSpec, ...] = ()
    blockpages: Tuple[BlockpageSpec, ...] = ()
    policies: Tuple[PolicySpec, ...] = ()
    ases: Tuple[AsSpec, ...] = ()
    infra: InfraSpec = field(default_factory=InfraSpec)
    populations: Tuple[PopulationSpec, ...] = ()
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    events: Tuple[EventSpec, ...] = ()
    rolling: Optional[RollingSpec] = None
    cohort: Optional[CohortSpec] = None
    planes: Tuple[PlaneSpec, ...] = ()  # empty -> single default C-Saw plane
    attack: Optional[AttackSpec] = None
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    expect: ExpectSpec = field(default_factory=ExpectSpec)
    urls: Dict[str, str] = field(default_factory=dict)  # label -> url sugar

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, dict):
            raise SpecError(f"scenario: expected a table, got {type(data).__name__}")
        pop, done = _take(data, "scenario")
        name = pop("name")
        if not name:
            raise SpecError("scenario: 'name' is required")
        infra = pop("infra")
        workload = pop("workload")
        rolling = pop("rolling")
        cohort = pop("cohort")
        attack = pop("attack")
        execution = pop("execution")
        expect = pop("expect")
        urls = pop("urls", {})
        if not isinstance(urls, dict):
            raise SpecError("scenario.urls: expected a table of label = url")
        spec = cls(
            name=str(name),
            description=str(pop("description", "")),
            seed=int(pop("seed", 1)),
            sites=tuple(
                SiteSpec.from_dict(s, f"sites[{i}]")
                for i, s in enumerate(_sections(pop("sites"), "sites"))
            ),
            blockpages=tuple(
                BlockpageSpec.from_dict(b, f"blockpages[{i}]")
                for i, b in enumerate(_sections(pop("blockpages"), "blockpages"))
            ),
            policies=tuple(
                PolicySpec.from_dict(p, f"policies[{i}]")
                for i, p in enumerate(_sections(pop("policies"), "policies"))
            ),
            ases=tuple(
                AsSpec.from_dict(a, f"ases[{i}]")
                for i, a in enumerate(_sections(pop("ases"), "ases"))
            ),
            infra=InfraSpec.from_dict(infra, "infra") if infra else InfraSpec(),
            populations=tuple(
                PopulationSpec.from_dict(p, f"populations[{i}]")
                for i, p in enumerate(_sections(pop("populations"), "populations"))
            ),
            workload=(
                WorkloadSpec.from_dict(workload, "workload")
                if workload
                else WorkloadSpec()
            ),
            events=tuple(
                EventSpec.from_dict(e, f"events[{i}]")
                for i, e in enumerate(_sections(pop("events"), "events"))
            ),
            rolling=RollingSpec.from_dict(rolling, "rolling") if rolling else None,
            cohort=CohortSpec.from_dict(cohort, "cohort") if cohort else None,
            planes=tuple(
                PlaneSpec.from_dict(p, f"planes[{i}]")
                for i, p in enumerate(_sections(pop("planes"), "planes"))
            ),
            attack=AttackSpec.from_dict(attack, "attack") if attack else None,
            execution=(
                ExecutionSpec.from_dict(execution, "execution")
                if execution
                else ExecutionSpec()
            ),
            expect=ExpectSpec.from_dict(expect, "expect") if expect else ExpectSpec(),
            urls={str(k): str(v) for k, v in urls.items()},
        )
        done()
        spec.validate()
        return spec

    @classmethod
    def from_toml(cls, path: str) -> "ScenarioSpec":
        return cls.from_dict(load_toml_file(path))

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """Same scenario, different world seed (re-rolls every stream)."""
        return dataclasses.replace(self, seed=int(seed))

    # -- cross-reference validation -------------------------------------------

    def resolved_mode(self) -> str:
        mode = self.execution.mode
        if mode != "auto":
            return mode
        if self.attack is not None:
            return "attack"
        if self.cohort is not None:
            return "cohort"
        if self.populations and self.workload.kind == "browse" and self.workload.urls:
            return "clients"
        return "probe"

    def validate(self) -> None:
        policy_names = {p.name for p in self.policies}
        if len(policy_names) != len(self.policies):
            raise SpecError("policies: duplicate policy names")
        asns = {a.asn for a in self.ases}
        if len(asns) != len(self.ases):
            raise SpecError("ases: duplicate ASNs")
        blockpage_names = {b.hostname for b in self.blockpages}
        for i, asys in enumerate(self.ases):
            if asys.policy and asys.policy not in policy_names:
                raise SpecError(
                    f"ases[{i}]: unknown policy {asys.policy!r} "
                    f"(declared: {sorted(policy_names) or 'none'})"
                )
        for i, policy in enumerate(self.policies):
            for j, rule in enumerate(policy.rules):
                if rule.blockpage and rule.blockpage not in blockpage_names:
                    raise SpecError(
                        f"policies[{i}].rules[{j}]: unknown blockpage "
                        f"{rule.blockpage!r}"
                    )
        for i, event in enumerate(self.events):
            if event.asn not in asns:
                raise SpecError(f"events[{i}]: unknown asn {event.asn}")
            if event.blockpage and event.blockpage not in blockpage_names:
                raise SpecError(
                    f"events[{i}]: unknown blockpage {event.blockpage!r}"
                )
        if self.rolling is not None:
            for asn in self.rolling.asns:
                if asn not in asns:
                    raise SpecError(f"rolling: unknown asn {asn}")
        for i, pop_spec in enumerate(self.populations):
            for asn in pop_spec.ases:
                if asn not in asns:
                    raise SpecError(f"populations[{i}]: unknown asn {asn}")
            self._check_config_keys(pop_spec.config, f"populations[{i}].config")
        mode = self.resolved_mode()
        world_checks = bool(
            self.expect.verdicts
            or self.expect.classifications
            or self.expect.detections
            or self.expect.min_observations
        )
        if mode in ("cohort", "attack") and world_checks:
            raise SpecError(
                f"expect: verdict/classification/detection checks need a "
                f"world-backed mode, not {mode!r}"
            )
        if self.expect.fleet is not None and mode != "cohort":
            raise SpecError("expect.fleet: requires cohort mode")
        if self.expect.reputation is not None and mode != "attack":
            raise SpecError("expect.reputation: requires attack mode")
        if self.planes and mode != "cohort":
            raise SpecError("planes: a [[planes]] mix requires cohort mode")
        if self.expect.planes and mode != "cohort":
            raise SpecError("expect.plane: requires cohort mode")
        if self.planes:
            plane_names = [p.name for p in self.planes]
            if len(set(plane_names)) != len(plane_names):
                raise SpecError(f"planes: duplicate plane names {plane_names}")
            # The registry is the source of truth for what can actually
            # be built — catch kind drift at validation time, not run
            # time (lazy import: spec parsing must not pull the planes
            # package unless a mix is declared).
            from ..planes import PLANE_KINDS

            for i, plane in enumerate(self.planes):
                if plane.kind not in PLANE_KINDS:
                    raise SpecError(
                        f"planes[{i}]: kind {plane.kind!r} not in registry "
                        f"({sorted(PLANE_KINDS)})"
                    )
        if self.expect.planes:
            declared = (
                {p.name for p in self.planes} if self.planes else {"csaw"}
            )
            for i, expect in enumerate(self.expect.planes):
                if expect.name not in declared:
                    raise SpecError(
                        f"expect.plane[{i}]: unknown plane {expect.name!r} "
                        f"(declared: {sorted(declared)})"
                    )
        if mode == "cohort" and self.cohort is None:
            raise SpecError("execution.mode = 'cohort' needs a [cohort] section")
        if mode == "attack" and self.attack is None:
            raise SpecError("execution.mode = 'attack' needs an [attack] section")
        if self.expect.verdicts or self.expect.classifications:
            for i, verdict in enumerate(self.expect.verdicts):
                if verdict.asn not in asns:
                    raise SpecError(f"expect.verdict[{i}]: unknown asn {verdict.asn}")
        if self.attack is not None:
            group_names = {g.name for g in self.attack.groups}
            if self.expect.reputation is not None:
                for name in (
                    self.expect.reputation.flagged_groups
                    + self.expect.reputation.clean_groups
                ):
                    if name not in group_names:
                        raise SpecError(
                            f"expect.reputation: unknown group {name!r}"
                        )

    @staticmethod
    def _check_config_keys(config: Dict[str, Any], where: str) -> None:
        from ..core.config import CSawConfig

        known = {f.name for f in dataclass_fields(CSawConfig)}
        unknown = sorted(set(config) - known)
        if unknown:
            raise SpecError(f"{where}: unknown CSawConfig field(s) {unknown}")


# -- TOML loading --------------------------------------------------------------


def load_toml_file(path: str) -> Dict[str, Any]:
    """Parse a TOML file into a plain dict (stdlib tomllib when present,
    otherwise the subset parser below — CI runs Python 3.9)."""
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        with open(path, encoding="utf-8") as handle:
            return _parse_toml_subset(handle.read(), path)
    with open(path, "rb") as handle:
        return tomllib.load(handle)


_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _parse_toml_subset(text: str, path: str = "<toml>") -> Dict[str, Any]:
    """The TOML subset scenario packs use; see the module docstring."""
    root: Dict[str, Any] = {}
    current = root
    lines = text.split("\n")
    index = 0
    while index < len(lines):
        line = _strip_comment(lines[index]).strip()
        index += 1
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            parts = _header_parts(line[2:-2], path)
            parent = _navigate(root, parts[:-1], path)
            items = parent.setdefault(parts[-1], [])
            if not isinstance(items, list):
                raise SpecError(f"{path}: {line!r} conflicts with earlier value")
            current = {}
            items.append(current)
        elif line.startswith("[") and line.endswith("]"):
            parts = _header_parts(line[1:-1], path)
            current = _navigate(root, parts, path)
        else:
            line_no = index  # 1-based: index was already advanced
            if "=" not in line:
                raise SpecError(
                    f"{path}: cannot parse line {line_no}: {line!r}"
                )
            key, _, raw = line.partition("=")
            key = key.strip().strip('"')
            if not _BARE_KEY.match(key):
                raise SpecError(f"{path}: unsupported key {key!r}")
            raw = raw.strip()
            # Multiline arrays: keep appending lines until brackets balance.
            while raw.count("[") > raw.count("]"):
                if index >= len(lines):
                    raise SpecError(f"{path}: unterminated array for {key!r}")
                raw += " " + _strip_comment(lines[index]).strip()
                index += 1
            try:
                current[key] = _parse_value(raw.strip(), path)
            except SpecError as err:
                raise SpecError(f"{err} (line {line_no})") from None
    return root


def _strip_comment(line: str) -> str:
    in_string = False
    for pos, char in enumerate(line):
        if char == '"':
            in_string = not in_string
        elif char == "#" and not in_string:
            return line[:pos]
    return line


def _header_parts(header: str, path: str) -> List[str]:
    parts = [part.strip().strip('"') for part in header.strip().split(".")]
    if not all(_BARE_KEY.match(part) for part in parts):
        raise SpecError(f"{path}: unsupported table header {header!r}")
    return parts


def _navigate(root: Dict[str, Any], parts: List[str], path: str) -> Dict[str, Any]:
    node: Any = root
    for part in parts:
        if isinstance(node, list):
            node = node[-1]
        nxt = node.get(part)
        if nxt is None:
            nxt = node.setdefault(part, {})
        node = nxt
    if isinstance(node, list):
        node = node[-1]
    if not isinstance(node, dict):
        raise SpecError(f"{path}: table path {'.'.join(parts)!r} is not a table")
    return node


_FLOAT = re.compile(r"^[+-]?(\d[\d_]*\.[\d_]*([eE][+-]?\d+)?|\d[\d_]*[eE][+-]?\d+)$")
_INT = re.compile(r"^[+-]?\d[\d_]*$")


def _parse_value(raw: str, path: str) -> Any:
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    if raw == "true":
        return True
    if raw == "false":
        return False
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_value(part.strip(), path)
            for part in _split_array(inner, path)
        ]
    if _INT.match(raw):
        return int(raw.replace("_", ""))
    if _FLOAT.match(raw):
        return float(raw.replace("_", ""))
    raise SpecError(f"{path}: cannot parse value {raw!r}")


def _split_array(inner: str, path: str) -> List[str]:
    parts: List[str] = []
    depth = 0
    in_string = False
    start = 0
    for pos, char in enumerate(inner):
        if char == '"':
            in_string = not in_string
        elif in_string:
            continue
        elif char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(inner[start:pos])
            start = pos + 1
    tail = inner[start:].strip()
    if tail:
        parts.append(inner[start:])
    return parts
