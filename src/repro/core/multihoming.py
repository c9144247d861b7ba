"""Multihoming detection and strategy pinning (§4.4).

A multihomed access network maps flows randomly across providers.  If one
provider blocks a URL and another does not, naive caching oscillates
between "blocked" and "not-blocked", alternating cheap and expensive
fetches.  C-Saw:

1. detects multihoming by periodically probing the apparent ASN — more
   than one ASN over a short window ⇒ multihomed;
2. once multihomed, *pins* each URL's treatment to the stricter
   observation: a blocked record is not downgraded by a single direct
   success (which may just have ridden the non-filtering provider), and
   stage evidence accumulates across providers so the circumvention
   strategy matches the strictest censor.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List, Set, Tuple

from ..simnet.flow import FlowContext
from ..simnet.topology import AccessNetwork
from ..simnet.world import World
from .localdb import LocalDatabase
from .records import BlockStatus, BlockType

__all__ = ["MultihomingManager"]

_PROBE_INTERVAL = 60.0  # seconds between ASN probes
_WINDOW = 8  # the most recent probes that count


class MultihomingManager:
    """ASN probing plus the blocked-record pinning rule."""

    def __init__(
        self,
        world: World,
        access: AccessNetwork,
        rng_stream: str = "multihoming",
    ):
        self.world = world
        self.access = access
        self.rng = world.rngs.stream(rng_stream)
        self._observations: Deque[Tuple[float, int]] = deque(maxlen=_WINDOW)
        self.probes = 0

    # -- detection ---------------------------------------------------------

    def probe_once(self, ctx: FlowContext) -> Generator:
        """Process: one ASN lookup (e.g. an ip-to-ASN service round trip).

        Each probe rides a *fresh* flow, so a multihomed network shows its
        different providers across probes.
        """
        env = self.world.env
        flow_isp = self.access.pick_isp(self.rng)
        # One round trip to a whois/ASN service.
        yield env.timeout(0.05 + ctx.access.access_rtt)
        self._observations.append((env.now, flow_isp.asn))
        self.probes += 1
        return flow_isp.asn

    def run_periodic(self, ctx: FlowContext, until: float) -> Generator:
        """Background process: probe every ``_PROBE_INTERVAL`` seconds."""
        env = self.world.env
        while env.now < until:
            yield env.timeout(_PROBE_INTERVAL)
            yield from self.probe_once(ctx)

    @property
    def observed_asns(self) -> Set[int]:
        return {asn for _t, asn in self._observations}

    @property
    def is_multihomed(self) -> bool:
        return len(self.observed_asns) > 1

    # -- strategy pinning -------------------------------------------------------

    def adjust_measurement(
        self,
        local_db: LocalDatabase,
        url: str,
        status: BlockStatus,
        stages: List[BlockType],
    ) -> Tuple[BlockStatus, List[BlockType]]:
        """Pin to the stricter observation when multihomed.

        A NOT_BLOCKED result against an existing BLOCKED record is
        discarded (the flow likely rode the non-filtering provider);
        blocked results merge stage evidence with the record so the
        strictest blocking drives circumvention choice.
        """
        if not self.is_multihomed:
            return status, stages
        existing_status, record = local_db.lookup(url)
        if existing_status is not BlockStatus.BLOCKED or record is None:
            return status, stages
        if status is BlockStatus.NOT_BLOCKED:
            return BlockStatus.BLOCKED, list(record.stages)
        merged = list(record.stages)
        for stage in stages:
            if stage not in merged:
                merged.append(stage)
        return BlockStatus.BLOCKED, merged
