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

Decoding is driven by the dataclass fields: a field reads the key of its
own name (or ``metadata["key"]``), a field without a default is
required, an empty table means "this section with its defaults", and
values are type-checked strictly.  Range and cross-reference checks live
in ``__post_init__``, so specs built with constructors get them too.

TOML parsing prefers :mod:`tomllib` (Python ≥ 3.11) and falls back to
the subset parser in :mod:`repro.devtools.toml_subset` so the 3.9/3.10
CI matrix needs no third-party dependency.
"""

import dataclasses
import functools
import inspect
import typing
from dataclasses import MISSING, dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..devtools import toml_subset

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
    dangling reference.  The message always names the offending path.

    ``key`` is that path (``sites[0].size_bytes``).  A check in a spec
    class's ``__post_init__`` names only its own field; the decoder
    prefixes the section it was decoding.
    """

    def __init__(self, problem: str, key: str = "") -> None:
        super().__init__(f"{key}: {problem}" if key else problem)
        self.problem = problem
        self.key = key


def _check(ok: bool, key: str, problem: str) -> None:
    if not ok:
        raise SpecError(problem, key)


# -- dict -> dataclass decoding ------------------------------------------------


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where and key else where or key


# Exact types, because a TOML bool is an int: int and float fields reject
# bools, a float field accepts an int, and nothing is coerced to a string.
_SCALARS: Dict[type, Tuple[str, Tuple[type, ...]]] = {
    str: ("a string", (str,)),
    bool: ("a boolean", (bool,)),
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
}


def _converter(tp: Any, required: bool = False) -> Callable[[Any, str], Any]:
    """``convert(value, where)`` for one field type; a mismatch raises
    :class:`SpecError` naming ``where``."""
    if tp is Any:
        return lambda value, where: value
    if tp in _SCALARS:
        what, accepted = _SCALARS[tp]
        nonempty = required and tp is str

        def scalar(value: Any, where: str) -> Any:
            if type(value) not in accepted:
                raise SpecError(f"expected {what}, got {value!r}", where)
            if nonempty and not value:
                raise SpecError("must be a non-empty string", where)
            return tp(value)

        return scalar
    if dataclasses.is_dataclass(tp):
        return functools.partial(_decode, tp)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:  # Optional[X]: TOML has no null, so decode as X
        return _converter(args[0])
    if origin is tuple:  # Tuple[X, ...]
        item = _converter(args[0])

        def sequence(value: Any, where: str) -> Tuple[Any, ...]:
            if not isinstance(value, list):
                raise SpecError(f"expected a list, got {value!r}", where)
            return tuple([item(v, f"{where}[{i}]") for i, v in enumerate(value)])

        return sequence
    if origin is dict:  # Dict[str, X]
        item = _converter(args[1])

        def table(value: Any, where: str) -> Dict[str, Any]:
            if not isinstance(value, dict):
                raise SpecError(f"expected a table, got {type(value).__name__}", where)
            return {k: item(v, f"{where}.{k}") for k, v in value.items()}

        return table
    raise TypeError(f"no spec decoder for type {tp!r}")


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Dict[str, Tuple[str, Callable]], Tuple[str, ...]]:
    """``key -> (field name, converter)`` for spec class ``cls``, and its
    required keys; built on first use and cached per class."""
    by_key, required = {}, []
    for f in dataclasses.fields(cls):
        key = f.metadata.get("key", f.name)
        needed = f.default is MISSING and f.default_factory is MISSING
        by_key[key] = (f.name, _converter(f.type, needed))
        if needed:
            required.append(key)
    return by_key, tuple(required)


def _decode(cls: type, data: Any, where: str) -> Any:
    """Build the spec class ``cls`` from the table ``data`` at path
    ``where`` ("" for the scenario itself)."""
    label = where or "scenario"
    if not isinstance(data, dict):
        raise SpecError(f"expected a table, got {type(data).__name__}", label)
    by_key, required = _schema(cls)
    if not data.keys() <= by_key.keys():
        unknown = sorted(data.keys() - by_key.keys())
        raise SpecError(f"unknown key(s) {unknown}", label)
    for key in required:
        if key not in data:
            raise SpecError("required key is missing", _join(where, key))
    prefix = f"{where}." if where else ""
    kwargs = {}
    for key, value in data.items():
        name, convert = by_key[key]
        kwargs[name] = convert(value, prefix + key)
    try:
        return cls(**kwargs)
    except SpecError as err:
        raise SpecError(err.problem, _join(where, err.key)) from None


@functools.lru_cache(maxsize=None)
def _config_converters() -> Dict[str, Callable[[Any, str], Any]]:
    """``CSawConfig`` field -> converter.  That module's annotations are
    strings, so they are resolved once, here."""
    from ..core.config import CSawConfig

    hints = typing.get_type_hints(CSawConfig)
    return {f.name: _converter(hints[f.name]) for f in dataclasses.fields(CSawConfig)}


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


@dataclass(frozen=True)
class BlockpageSpec:
    """A censor-run block-page server (serves any path via catch-all)."""

    hostname: str
    location: str = "pakistan"
    # "" -> the stock DEFAULT_BLOCKPAGE_HTML; anything else rebrands it
    # (the Pakistan world serves an "ISP-B"-branded page from ISP-B).
    brand: str = ""


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

    def __post_init__(self) -> None:
        _check(bool(self.mechanisms), "mechanisms", "must list at least one mechanism")
        if not (
            self.domains
            or self.keywords
            or self.url_prefixes
            or self.ips
            or self.ips_of
            or self.keywords_ip_of
        ):
            raise SpecError("matcher needs at least one criterion")


@dataclass(frozen=True)
class PolicySpec:
    """An ordered first-match rule list; shared between ASes by name
    (one PolicySpec referenced by many ASes = centralized censorship)."""

    name: str
    rules: Tuple[RuleSpec, ...] = ()


@dataclass(frozen=True)
class AsSpec:
    asn: int
    name: str = ""  # "" -> "AS{asn}"
    country: str = "pakistan"
    policy: str = ""  # ref into [[policies]]; "" -> uncensored

    def __post_init__(self) -> None:
        if not self.name:
            object.__setattr__(self, "name", f"AS{self.asn}")


@dataclass(frozen=True)
class InfraSpec:
    """Shared circumvention infrastructure."""

    public_resolver: bool = True
    tor_relays: int = 0
    lantern_proxies: int = 0
    proxy_fleet: bool = False  # the ten Table-2 static proxies
    front_hostname: str = ""  # CDN front for domain-fronting transports


# -- people and behaviour ------------------------------------------------------


@dataclass(frozen=True)
class PopulationSpec:
    """A batch of C-Saw clients, ``per_as`` in each listed AS."""

    name_format: str = "user-{asn}-{index}"
    per_as: int = 1
    ases: Tuple[int, ...] = ()  # empty -> every AS in the spec
    transports: Tuple[str, ...] = ("public-dns", "https", "tor", "lantern")
    location: str = "pakistan"
    # CSawConfig overrides; ScenarioSpec.validate() checks them.
    config: Dict[str, Any] = field(default_factory=dict)


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

    def __post_init__(self) -> None:
        if self.kind not in ("browse", "none"):
            raise SpecError(f"unknown workload kind {self.kind!r}", "kind")


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

    def __post_init__(self) -> None:
        _check(bool(self.domains), "domains", "must be non-empty")
        _check(bool(self.asns), "asns", "must be non-empty")


@dataclass(frozen=True)
class CohortSpec:
    """Fleet-scale parameters, mapped onto :func:`core.fleet.run_fleet_storm`."""

    n_ases: int = 4
    clients_per_as: int = 500
    urls_per_as: int = 10
    pull_interval: float = 600.0
    wave_at: float = 300.0
    wave_stagger: float = 0.0  # roll the wave's per-AS onsets over this span
    horizon: float = 0.0  # 0 -> the fleet layer's default
    asn_base: int = 40000
    sharded: bool = False

    def __post_init__(self) -> None:
        _check(self.n_ases >= 0, "n_ases", "must be >= 0")
        _check(self.clients_per_as >= 1, "clients_per_as", "must be >= 1")
        _check(self.urls_per_as >= 0, "urls_per_as", "must be >= 0")
        _check(self.pull_interval > 0.0, "pull_interval", "must be > 0")
        _check(self.wave_at >= 0.0, "wave_at", "must be >= 0")
        _check(self.wave_stagger >= 0.0, "wave_stagger", "must be >= 0")
        _check(self.horizon >= 0.0, "horizon", "must be >= 0")


@dataclass(frozen=True)
class PlaneSpec:
    """One reporter plane in a cohort's mix (``[[planes]]``).

    ``kind`` picks the implementation from the :mod:`repro.planes`
    registry; ``fraction`` sizes the plane's reporter subpopulation.
    The remaining knobs are unset unless given, which leaves the plane
    class's own default, and a kind may set only the knobs its
    constructor takes: ``miss_rate`` (encore blockpage
    misclassification), ``probe_interval``/``coverage`` (problist
    scheduling and list-generation recall), ``urls_each`` (the URLs a
    flood or clique reporter fabricates).
    """

    kind: str
    name: str = ""  # "" -> the kind
    fraction: float = 0.01
    miss_rate: Optional[float] = None
    probe_interval: Optional[float] = None
    coverage: Optional[float] = None
    urls_each: Optional[int] = None

    def __post_init__(self) -> None:
        # The registry is the source of truth for what can be built, and
        # the plane's constructor for what its knobs accept (lazy import:
        # only a declared mix pulls in the planes package).
        from ..planes import PLANE_KINDS, build_plane

        if self.kind not in PLANE_KINDS:
            known = "|".join(sorted(PLANE_KINDS))
            raise SpecError(f"{self.kind!r} not in registry ({known})", "kind")
        if not self.name:
            object.__setattr__(self, "name", self.kind)
        takes = inspect.signature(PLANE_KINDS[self.kind]).parameters
        for f in dataclasses.fields(self):
            if f.name != "kind" and f.name not in takes:
                _check(getattr(self, f.name) is None, f.name,
                       f"plane kind {self.kind!r} does not read it")
        # Build the plane once, so its range checks fail here; each
        # constructor message starts with the knob it rejects.
        try:
            build_plane({k: v for k, v in vars(self).items() if v is not None})
        except ValueError as err:
            knob, _, problem = str(err).partition(" ")
            raise SpecError(problem, knob) from None


@dataclass(frozen=True)
class ExecutionSpec:
    """How to run: mode auto|clients|probe|cohort, plus the sim horizon
    for client workloads."""

    mode: str = "auto"
    duration: float = 36 * 3600.0

    MODES = ("auto", "clients", "probe", "cohort")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise SpecError(f"{self.mode!r} not in {'|'.join(self.MODES)}", "mode")


# -- expectations --------------------------------------------------------------


@dataclass(frozen=True)
class VerdictExpect:
    """Direct-path verdict for ``url`` probed from inside ``asn``."""

    url: str
    asn: int
    status: str  # "blocked" | "not-blocked"
    stages: Tuple[str, ...] = ()  # empty -> status-only check
    suspected_blockpage: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.status not in ("blocked", "not-blocked"):
            raise SpecError(f"{self.status!r} not in blocked|not-blocked", "status")


@dataclass(frozen=True)
class ClassificationExpect:
    """Cross-vantage diagnosis for one URL, probed from *every* AS in
    the spec: ``censorship`` (on-path, vantage-dependent),
    ``geoblocking`` (server-side filtering at every vantage), or
    ``open``."""

    url: str
    verdict: str

    CLASSES = ("censorship", "geoblocking", "open")

    def __post_init__(self) -> None:
        if self.verdict not in self.CLASSES:
            classes = "|".join(self.CLASSES)
            raise SpecError(f"{self.verdict!r} not in {classes}", "verdict")


@dataclass(frozen=True)
class DetectionExpect:
    """The crowd must notice: some global-DB observation of ``domain``
    from ``asn`` no earlier than the matching blocking event and (when
    ``within`` > 0) no later than ``within`` seconds after it."""

    domain: str
    asn: int
    within: float = 0.0  # 0 -> any time after onset
    symptom: str = ""  # "" -> any symptom label


@dataclass(frozen=True)
class FleetExpect:
    all_converge: bool = True
    max_convergence: float = 0.0  # 0 -> unchecked
    min_reports: int = 0


@dataclass(frozen=True)
class PlaneExpect:
    """Per-plane report provenance and convergence checks for one plane
    of a cohort storm (``[[expect.plane]]``)."""

    name: str
    min_reports: int = 1
    max_reports: int = 0  # 0 -> unchecked
    all_converge: bool = False


@dataclass(frozen=True)
class ReputationExpect:
    """The reputation pass after a cohort storm (``[expect.reputation]``):
    every reporter of a flagged plane is revoked, and so is every URL
    only flagged planes vouched for; each clean plane posted, and none
    of its reporters or URLs is hit."""

    flagged_planes: Tuple[str, ...] = ()
    clean_planes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ExpectSpec:
    # The repeated sections read their singular TOML keys
    # ([[expect.verdict]], [[expect.plane]], ...).
    verdicts: Tuple[VerdictExpect, ...] = field(
        default=(), metadata={"key": "verdict"}
    )
    classifications: Tuple[ClassificationExpect, ...] = field(
        default=(), metadata={"key": "classification"}
    )
    detections: Tuple[DetectionExpect, ...] = field(
        default=(), metadata={"key": "detection"}
    )
    min_observations: int = 0
    fleet: Optional[FleetExpect] = None
    reputation: Optional[ReputationExpect] = None
    planes: Tuple[PlaneExpect, ...] = field(default=(), metadata={"key": "plane"})


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
    planes: Tuple[PlaneSpec, ...] = ()  # empty -> one C-Saw plane at 1%
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    expect: ExpectSpec = field(default_factory=ExpectSpec)
    urls: Dict[str, str] = field(default_factory=dict)  # label -> url sugar

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        return _decode(cls, data, "")

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
            self._check_config(pop_spec.config, f"populations[{i}].config")
        mode = self.resolved_mode()
        world_checks = bool(
            self.expect.verdicts
            or self.expect.classifications
            or self.expect.detections
            or self.expect.min_observations
        )
        if mode == "cohort" and world_checks:
            raise SpecError(
                "expect: verdict/classification/detection checks need a "
                "world-backed mode, not 'cohort'"
            )
        reputation = self.expect.reputation
        for section, present in (
            ("expect.fleet", self.expect.fleet is not None),
            ("expect.reputation", reputation is not None),
            ("planes", bool(self.planes)),
            ("expect.plane", bool(self.expect.planes)),
        ):
            if present and mode != "cohort":
                raise SpecError(f"{section}: requires cohort mode")
        if mode == "cohort" and self.cohort is None:
            raise SpecError("execution.mode = 'cohort' needs a [cohort] section")
        if reputation is not None and self.cohort.sharded:
            raise SpecError(
                "expect.reputation: the reputation pass needs one server, "
                "so cohort.sharded must be false"
            )
        plane_names = [p.name for p in self.planes]
        if len(set(plane_names)) != len(plane_names):
            raise SpecError(f"planes: duplicate plane names {plane_names}")
        named = [
            (f"expect.plane[{i}]", want.name)
            for i, want in enumerate(self.expect.planes)
        ]
        if reputation is not None:
            named += [
                ("expect.reputation", name)
                for name in reputation.flagged_planes + reputation.clean_planes
            ]
        declared = set(plane_names) or {"csaw"}  # the default C-Saw plane
        for where, name in named:
            if name not in declared:
                raise SpecError(
                    f"{where}: unknown plane {name!r} "
                    f"(declared: {sorted(declared)})"
                )
        if self.expect.verdicts or self.expect.classifications:
            for i, verdict in enumerate(self.expect.verdicts):
                if verdict.asn not in asns:
                    raise SpecError(f"expect.verdict[{i}]: unknown asn {verdict.asn}")

    @staticmethod
    def _check_config(config: Dict[str, Any], where: str) -> None:
        """Type-check ``CSawConfig`` overrides, then build the config once
        so its own range checks fail here rather than at compile time."""
        from ..core.config import CSawConfig

        converters = _config_converters()
        unknown = sorted(config.keys() - converters.keys())
        if unknown:
            raise SpecError(f"unknown CSawConfig field(s) {unknown}", where)
        for key, value in config.items():
            converters[key](value, f"{where}.{key}")
        try:
            CSawConfig(**config)
        except ValueError as err:
            raise SpecError(str(err), where) from None


# -- TOML loading --------------------------------------------------------------


def load_toml_file(path: str) -> Dict[str, Any]:
    """Parse a TOML file into a plain dict (stdlib tomllib when present,
    otherwise :func:`repro.devtools.toml_subset.parse` — CI runs Python
    3.9).  A syntax error is a :class:`SpecError` naming the file, with
    the parser's message and position."""
    try:
        import tomllib  # Python >= 3.11
    except ImportError:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        try:
            return toml_subset.parse(text, path)
        except ValueError as err:
            raise SpecError(str(err)) from None
    with open(path, "rb") as handle:
        try:
            return tomllib.load(handle)
        except tomllib.TOMLDecodeError as err:
            raise SpecError(f"{path}: {err}") from None
