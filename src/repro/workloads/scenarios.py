"""The canned case-study world (a spec-backed wrapper).

:func:`pakistan_case_study` rebuilds the paper's measurement setting
(§2.3, Table 1): a University/home vantage in Pakistan behind two large
ISPs with *different* filtering stacks —

- **ISP-A** (AS 17557): HTTP-level blocking, redirecting blocked URLs to a
  block page;
- **ISP-B** (AS 38193): multi-stage blocking for YouTube (DNS resolution
  to a local host *and* HTTP/HTTPS request drops) and iframe block pages
  for everything else.

Since the scenario-DSL redesign the world is *data*: the builder here
is a thin wrapper that compiles
:func:`repro.scenarios.library.pakistan_spec` and re-bundles the result
into the historical dataclass.  Same seed, same world, bit-for-bit
(``tests/test_scenario_dsl.py`` holds the golden fingerprints); only
the construction path changed.  Its clients' transports come from the
compiler's one catalogue,
:func:`~repro.scenarios.compiler.build_transports`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..circumvent import (
    LanternNetwork,
    LanternTransport,
    StaticProxyTransport,
    TorNetwork,
    TorTransport,
    Transport,
)
from ..scenarios.compiler import ScenarioCompiler, build_transports
from ..scenarios.library import (
    CLEAN_ASN,
    FRONT,
    ISP_A_ASN,
    ISP_B_ASN,
    pakistan_spec,
)
from ..simnet.topology import AutonomousSystem, Host
from ..simnet.world import World

__all__ = ["CaseStudyScenario", "pakistan_case_study", "BLOCKED_CATEGORIES"]

BLOCKED_CATEGORIES = ("porn", "political", "religious")


@dataclass
class CaseStudyScenario:
    """Everything the evaluation needs, in one bundle."""

    world: World
    isp_a: AutonomousSystem
    isp_b: AutonomousSystem
    isp_clean: AutonomousSystem
    blockpage_a: Host
    blockpage_b: Host
    tor: TorNetwork
    lantern: LanternNetwork
    proxy_transports: List[StaticProxyTransport]
    urls: Dict[str, str] = field(default_factory=dict)

    def make_transports(
        self,
        client_name: str,
        include: Optional[List[str]] = None,
        tor_rotation: float = 600.0,
        tor_exit_location: Optional[str] = None,
    ) -> List[Transport]:
        """Per-client transport set: the whole catalogue, or ``include``."""
        return build_transports(
            client_name,
            include,
            tor=self.tor,
            lantern=self.lantern,
            front_hostname=FRONT,
            tor_rotation=tor_rotation,
            tor_exit_location=tor_exit_location,
        )

    def tor_transport(self, client_name: str, **kwargs) -> TorTransport:
        return self.make_transports(client_name, include=["tor"], **kwargs)[0]

    def lantern_transport(self, client_name: str) -> LanternTransport:
        return self.make_transports(client_name, include=["lantern"])[0]


def pakistan_case_study(
    seed: int = 1,
    n_tor_relays: int = 40,
    n_lantern_proxies: int = 10,
    with_proxy_fleet: bool = True,
) -> CaseStudyScenario:
    """Build the full case-study world (§2.3 / Table 1 / §7)."""
    spec = pakistan_spec(
        seed=seed,
        n_tor_relays=n_tor_relays,
        n_lantern_proxies=n_lantern_proxies,
        with_proxy_fleet=with_proxy_fleet,
    )
    compiled = ScenarioCompiler().compile(spec)
    return CaseStudyScenario(
        world=compiled.world,
        isp_a=compiled.isps[ISP_A_ASN],
        isp_b=compiled.isps[ISP_B_ASN],
        isp_clean=compiled.isps[CLEAN_ASN],
        blockpage_a=compiled.blockpages["block.isp-a.pk"],
        blockpage_b=compiled.blockpages["block.isp-b.pk"],
        tor=compiled.tor,
        lantern=compiled.lantern,
        proxy_transports=compiled.proxies,
        urls=dict(spec.urls),
    )
