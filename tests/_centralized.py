"""The §2 centralized-country world: the contrast case to Pakistan.

One national policy object is shared by every ISP, so all traffic of
the same type sees the same kind of blocking (think Iran or South
Korea in §2).  Only tests build this world: the scenario golden's
``centralized`` entry, the compiler's shared-policy check and the
centralized-censorship tests in ``tests/test_scenarios_analysis.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.circumvent import LanternNetwork, TorNetwork, Transport
from repro.scenarios.compiler import ScenarioCompiler, build_transports
from repro.scenarios.library import SMALL_UNBLOCKED, YOUTUBE
from repro.scenarios.spec import (
    AsSpec,
    BlockpageSpec,
    ExecutionSpec,
    InfraSpec,
    PolicySpec,
    RuleSpec,
    ScenarioSpec,
    SiteSpec,
)
from repro.simnet.topology import AutonomousSystem, Host
from repro.simnet.world import World


def centralized_spec(
    seed: int = 1, n_isps: int = 4, country: str = "pakistan"
) -> ScenarioSpec:
    """One national policy object shared by every ISP."""
    return ScenarioSpec(
        name="centralized-country",
        description="centralized censorship: every ISP shares one "
        "national filtering policy",
        seed=seed,
        sites=(
            SiteSpec(YOUTUBE, location="global-anycast", size_bytes=360_000,
                     category="video", supports_fronting=True),
            SiteSpec(SMALL_UNBLOCKED, location="netherlands", size_bytes=95_000),
        ),
        blockpages=(BlockpageSpec("block.national-filter.example"),),
        policies=(
            PolicySpec(
                name="national",
                rules=(
                    RuleSpec(domains=("youtube.com",),
                             mechanisms=("blockpage-redirect",),
                             label="national-youtube"),
                ),
            ),
        ),
        ases=tuple(
            AsSpec(50000 + index, f"{country}-ISP-{index}", country=country,
                   policy="national")
            for index in range(n_isps)
        ),
        infra=InfraSpec(tor_relays=30, lantern_proxies=8),
        execution=ExecutionSpec(mode="probe"),
        urls={
            "youtube": f"http://{YOUTUBE}/",
            "small-unblocked": f"http://{SMALL_UNBLOCKED}/",
        },
    )


@dataclass
class CentralizedScenario:
    """The compiled world, with the shared policy and relay networks."""

    world: World
    isps: List[AutonomousSystem]
    policy: object  # the shared CensorPolicy
    blockpage: Host
    tor: TorNetwork
    lantern: LanternNetwork
    urls: Dict[str, str] = field(default_factory=dict)

    def make_transports(self, client_name: str) -> List[Transport]:
        return build_transports(
            client_name,
            ("public-dns", "https", "tor", "lantern"),
            tor=self.tor,
            lantern=self.lantern,
        )


def centralized_country(
    seed: int = 1, n_isps: int = 4, country: str = "pakistan"
) -> CentralizedScenario:
    """Compile :func:`centralized_spec` and bundle its pieces."""
    spec = centralized_spec(seed=seed, n_isps=n_isps, country=country)
    compiled = ScenarioCompiler().compile(spec)
    return CentralizedScenario(
        world=compiled.world,
        isps=[compiled.isps[a.asn] for a in spec.ases],
        policy=compiled.policies["national"],
        blockpage=compiled.blockpages["block.national-filter.example"],
        tor=compiled.tor,
        lantern=compiled.lantern,
        urls=dict(spec.urls),
    )
