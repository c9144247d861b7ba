"""Censor-side fingerprinting of C-Saw users (§8).

The paper asks whether C-Saw's behaviour — duplicate requests, failover
to circumvention after blocking — makes its users identifiable to a
censor watching the wire.  This module plays that censor: it consumes a
middlebox's *flow observations* (who connected where, when) and its
*enforcement log* (what was blocked, when), and scores each client IP on
C-Saw-shaped patterns:

- **paired flows**: two near-simultaneous connections from one client
  where one goes to a known relay (redundant requests);
- **block-then-relay**: a connection to a known relay shortly after that
  client hit an enforcement action (circumvention failover).

The counter-finding the paper hopes for (and this module lets benches
quantify): *selective* redundancy keeps these signals rare, while an
always-redundant strawman lights up immediately.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Sequence, Set

from .middlebox import Middlebox

__all__ = ["FingerprintScore", "FingerprintAnalyzer"]

# A relay flow within this many seconds of a non-relay flow is paired; one
# within this many seconds after a block is a failover.
_PAIR_WINDOW = 1.0
_FAILOVER_WINDOW = 30.0


@dataclass(frozen=True)
class FingerprintScore:
    """Per-client evidence the censor accumulated."""

    client_ip: str
    flows: int
    relay_flows: int
    paired_flows: int
    block_then_relay: int

    @property
    def suspicion(self) -> float:
        """Heuristic suspicion score in [0, inf)."""
        if self.flows == 0:
            return 0.0
        return (
            2.0 * self.block_then_relay + 1.0 * self.paired_flows
        ) / self.flows + 0.3 * (self.relay_flows / self.flows)


class FingerprintAnalyzer:
    """The censor's offline analysis over one middlebox's logs."""

    def __init__(self, middlebox: Middlebox, relay_ips: Set[str]):
        self.middlebox = middlebox
        self.relay_ips = set(relay_ips)

    def score_clients(self) -> Dict[str, FingerprintScore]:
        flows_by_client: Dict[str, List] = defaultdict(list)
        for flow in self.middlebox.flows:
            flows_by_client[flow.src_ip].append(flow)
        blocks_by_client: Dict[str, List[float]] = defaultdict(list)
        for event in self.middlebox.log:
            if event.src_ip:
                blocks_by_client[event.src_ip].append(event.time)

        scores = {}
        for client_ip, flows in flows_by_client.items():
            flows.sort(key=lambda f: f.time)
            relay_flows = [f for f in flows if f.dst_ip in self.relay_ips]
            paired = 0
            for relay_flow in relay_flows:
                # A non-relay flow starting within the pair window.
                if any(
                    f.dst_ip not in self.relay_ips
                    and abs(f.time - relay_flow.time) <= _PAIR_WINDOW
                    for f in flows
                ):
                    paired += 1
            block_times = sorted(blocks_by_client.get(client_ip, []))
            failovers = 0
            for relay_flow in relay_flows:
                if any(
                    0 <= relay_flow.time - t <= _FAILOVER_WINDOW
                    for t in block_times
                ):
                    failovers += 1
            scores[client_ip] = FingerprintScore(
                client_ip=client_ip,
                flows=len(flows),
                relay_flows=len(relay_flows),
                paired_flows=paired,
                block_then_relay=failovers,
            )
        return scores

    def classify(self, threshold: float = 0.25) -> AbstractSet[str]:
        """Client IPs the censor labels as circumvention-tool users.

        Returned as an ordered dict-as-set keyed in flow-arrival order,
        so anything listing the labelled IPs is same-seed stable.
        """
        labelled: Dict[str, None] = {
            ip: None
            for ip, score in self.score_clients().items()
            if score.suspicion >= threshold
        }
        return labelled.keys()

    def evaluate(
        self, true_users: Sequence[str], threshold: float = 0.25
    ) -> Dict[str, float]:
        """Precision/recall of the censor's labelling."""
        labelled = self.classify(threshold)
        truth = set(true_users)
        true_positives = len(labelled & truth)
        precision = true_positives / len(labelled) if labelled else 0.0
        recall = true_positives / len(truth) if truth else 0.0
        return {
            "precision": precision,
            "recall": recall,
            "labelled": float(len(labelled)),
        }
