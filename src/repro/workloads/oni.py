"""ONI-style blocking-type distributions (Figure 2).

The paper's Figure 2 plots, for eight ASes in Yemen, Indonesia, Vietnam,
and Kyrgyzstan, the fraction of censored pages experiencing each blocking
symptom: ``No DNS``, ``DNS Redir``, ``No HTTP Resp``, ``RST``, and
``Block Page w/o Redir`` — motivating C-Saw with the heterogeneity of
mechanisms across ISPs and countries.

Without the (retired) ONI dataset we *regenerate the setting*: each AS
gets a ground-truth mechanism mixture qualitatively matched to the
figure, a censored-domain list is materialized behind it, and the
reported fractions are produced by running C-Saw's own detection
flowchart from a vantage inside each AS — so the bench exercises the real
measurement pipeline, not just the ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..censor.blockpages import DEFAULT_BLOCKPAGE_HTML
from ..censor.policy import CensorPolicy, Matcher
from ..core.detection import measure_direct_path
from ..core.records import BlockType
from ..scenarios.compiler import blockpage_site
from ..scenarios.mechanisms import build_rule
from ..simnet.world import World

__all__ = ["OniAsSpec", "ONI_AS_SPECS", "OniSweep", "FIG2_CATEGORIES"]

FIG2_CATEGORIES = [
    "No DNS",
    "DNS Redir",
    "No HTTP Resp",
    "RST",
    "Block Page w/o Redir",
]


@dataclass(frozen=True)
class OniAsSpec:
    """Ground-truth blocking-type mixture for one AS (sums to 1)."""

    asn: int
    country: str
    mix: Tuple[float, float, float, float, float]  # FIG2_CATEGORIES order

    def __post_init__(self) -> None:
        if abs(sum(self.mix) - 1.0) > 1e-6:
            raise ValueError(f"mix must sum to 1: {self.mix!r}")


# Qualitative shapes from Figure 2: Yemen heavy on block pages, Indonesian
# ASes dominated by DNS redirection, Vietnam mostly silent DNS drops, and
# Kyrgyzstan showing RSTs alongside HTTP drops.
ONI_AS_SPECS: List[OniAsSpec] = [
    OniAsSpec(30873, "Yemen", (0.05, 0.10, 0.15, 0.05, 0.65)),
    OniAsSpec(4795, "Indonesia", (0.05, 0.70, 0.10, 0.00, 0.15)),
    OniAsSpec(18403, "Vietnam", (0.70, 0.05, 0.20, 0.05, 0.00)),
    OniAsSpec(45543, "Vietnam", (0.55, 0.10, 0.30, 0.05, 0.00)),
    OniAsSpec(45899, "Vietnam", (0.60, 0.05, 0.25, 0.10, 0.00)),
    OniAsSpec(8511, "Kyrgyzstan", (0.10, 0.10, 0.30, 0.40, 0.10)),
    OniAsSpec(12997, "Indonesia", (0.10, 0.55, 0.10, 0.05, 0.20)),
    OniAsSpec(8449, "Yemen", (0.10, 0.15, 0.20, 0.05, 0.50)),
]

# The mechanisms that produce each category (DNS Redir also drops the
# HTTP request, so the forged address serves nothing).
_CATEGORY_MECHANISMS = {
    "No DNS": ("dns-timeout",),
    "DNS Redir": ("dns-redirect", "http-drop"),
    "No HTTP Resp": ("ip-drop",),
    "RST": ("ip-rst",),
    "Block Page w/o Redir": ("blockpage-iframe",),
}

# Map observed BlockTypes onto the figure's categories.
_CATEGORY_OF = {
    BlockType.DNS_TIMEOUT: "No DNS",
    BlockType.DNS_NXDOMAIN: "No DNS",
    BlockType.DNS_SERVFAIL: "No DNS",
    BlockType.DNS_REFUSED: "No DNS",
    BlockType.DNS_REDIRECT: "DNS Redir",
    BlockType.IP_TIMEOUT: "No HTTP Resp",
    BlockType.HTTP_TIMEOUT: "No HTTP Resp",
    BlockType.IP_RST: "RST",
    BlockType.HTTP_RST: "RST",
    BlockType.BLOCK_PAGE: "Block Page w/o Redir",
}


class OniSweep:
    """Builds the eight-AS world and measures each from the inside."""

    def __init__(self, seed: int = 13, domains_per_as: int = 60):
        if domains_per_as < 1:
            raise ValueError(f"domains_per_as must be >= 1: {domains_per_as!r}")
        self.seed = seed
        self.domains_per_as = domains_per_as
        self.world = World(seed=seed)
        self._specs = ONI_AS_SPECS
        self._domains: Dict[int, List[str]] = {}
        self._built = False

    def build(self) -> "OniSweep":
        world = self.world
        world.add_public_resolver()
        rng = world.rngs.stream("oni")

        blockpage = blockpage_site(
            world, "block.oni.example", DEFAULT_BLOCKPAGE_HTML, "pakistan"
        )

        for spec in self._specs:
            domains = []
            policy = CensorPolicy(name=f"AS{spec.asn}")
            for index in range(self.domains_per_as):
                hostname = f"censored{index}.as{spec.asn}.example"
                world.web.add_site(hostname, location="us-east")
                world.web.add_page(f"http://{hostname}/", size_bytes=120_000)
                domains.append(hostname)
                category = rng.choices(FIG2_CATEGORIES, weights=spec.mix)[0]
                host_ip = world.network.hosts_by_name[hostname].ip
                policy.add_rule(
                    build_rule(
                        Matcher(domains={hostname}, ips={host_ip}),
                        _CATEGORY_MECHANISMS[category],
                        blockpage_ip=blockpage.ip,
                        redirect_ip="10.77.77.77",
                    )
                )
            self._domains[spec.asn] = domains
            world.add_isp(spec.asn, f"AS{spec.asn}", country=spec.country,
                          policy=policy)
        self._built = True
        return self

    def run(self) -> Dict[int, Dict[str, float]]:
        """Measure every censored domain from inside its AS.

        Returns {asn: {category: fraction}} as C-Saw's detector saw it.
        """
        if not self._built:
            self.build()
        world = self.world
        fractions: Dict[int, Dict[str, float]] = {}
        for spec in self._specs:
            isp = world.network.ases[spec.asn]
            client, access = world.add_client(f"oni-probe-{spec.asn}", [isp])
            counts = {category: 0 for category in FIG2_CATEGORIES}
            measured = 0
            for domain in self._domains[spec.asn]:
                ctx = world.new_ctx(client, access, stream=f"oni/{spec.asn}")
                outcome = world.run_process(
                    measure_direct_path(world, ctx, f"http://{domain}/")
                )
                if not outcome.stages:
                    continue
                category = _classify(outcome.stages)
                if category is not None:
                    counts[category] += 1
                    measured += 1
            fractions[spec.asn] = {
                category: (counts[category] / measured if measured else 0.0)
                for category in FIG2_CATEGORIES
            }
        return fractions

    def ground_truth(self) -> Dict[int, Dict[str, float]]:
        return {
            spec.asn: dict(zip(FIG2_CATEGORIES, spec.mix)) for spec in self._specs
        }

    def spec_for(self, asn: int) -> OniAsSpec:
        for spec in self._specs:
            if spec.asn == asn:
                return spec
        raise KeyError(asn)


def _classify(stages: List[BlockType]) -> Optional[str]:
    """First-stage symptom decides the Figure-2 category (DNS beats later
    stages, mirroring how ONI labeled multi-symptom measurements)."""
    for stage in stages:
        category = _CATEGORY_OF.get(stage)
        if category is not None:
            return category
    return None
