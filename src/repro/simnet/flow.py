"""Per-flow context and the client load model.

A :class:`FlowContext` carries everything a protocol step needs to know
about *who* is fetching: the client host, its access network, the ISP the
flow was mapped to (relevant for multihoming), the RNG stream, and the
client's load tracker.

The load tracker reproduces the paper's observation (§4.3.1, Figure 5b/c,
after Dean & Barroso and Vulimiri et al.) that redundant requests help at
low load but hurt at high load: every active fetch shares the client's
access bandwidth and processing capacity, so each concurrent request slows
all the others down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Optional

from .topology import AccessNetwork, AutonomousSystem, Host

__all__ = ["ClientLoadTracker", "FlowContext"]


# Load model: each extra concurrent request adds ``PENALTY`` (convex in
# the excess), each request past ``CAPACITY`` another ``OVER_PENALTY``,
# and the slowdown saturates at ``MAX_FACTOR``.
PENALTY = 0.18
CAPACITY = 6
OVER_PENALTY = 0.15
MAX_FACTOR = 2.5


class ClientLoadTracker:
    """Tracks concurrently active requests on one client machine.

    ``factor()`` scales transfer/processing time: 1.0 for a single active
    request, growing by ``PENALTY`` per extra concurrent request.  The
    penalty is mild — the effect compounds across a page's many
    embedded objects, which is what makes duplicate requests for large
    pages expensive (Figure 5c) while barely showing for small ones
    (Figure 5b).
    """

    def __init__(self) -> None:
        self.active = 0

    def enter(self) -> None:
        self.active += 1

    def exit(self) -> None:
        if self.active <= 0:
            raise RuntimeError("load tracker underflow")
        self.active -= 1

    def factor(self) -> float:
        """Multiplicative slowdown experienced by each active request.

        Grows with concurrency (shared access link + CPU), steeper past
        ``CAPACITY`` (queueing), and saturates at ``MAX_FACTOR`` — a real
        client is bounded by its hardware, and an uncapped penalty makes
        open-loop workloads cascade unrealistically.
        """
        excess = max(0, self.active - 1)
        # Convex in the concurrency: a single duplicate costs little, the
        # third and fourth compound (the paper's Figure 6a: two copies are
        # the sweet spot, three inflate the tail).
        slowdown = 1.0 + PENALTY * excess**1.7
        over = max(0, self.active - CAPACITY)
        return min(MAX_FACTOR, slowdown * (1.0 + OVER_PENALTY * over))


@dataclass
class FlowContext:
    """Immutable-ish bundle describing one client-side flow."""

    client: Host
    access: AccessNetwork
    isp: AutonomousSystem
    rng: Random
    load: ClientLoadTracker = field(default_factory=ClientLoadTracker)

    @classmethod
    def for_new_flow(
        cls,
        client: Host,
        access: AccessNetwork,
        rng: Random,
        load: Optional[ClientLoadTracker] = None,
    ) -> "FlowContext":
        """Map a fresh flow onto one of the access network's providers."""
        return cls(
            client=client,
            access=access,
            isp=access.pick_isp(rng),
            rng=rng,
            load=load or ClientLoadTracker(),
        )

    @property
    def middlebox(self):
        """The censor middlebox on this flow's path (or None)."""
        return self.isp.censor
