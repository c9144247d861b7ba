"""Reputation-based identification of malicious reporters (§5).

The paper points to reputation systems (Wifi-Reports, Credence, Strength
in Numbers) as the next line of defence after vote normalization: flag
clients whose *behaviour* is distinctively malicious and revoke their
UUIDs.  This module implements the simple behavioural profile those
systems converge on:

- **volume**: how many blocked entries a client vouches for (spammers
  report orders of magnitude more than real users can browse);
- **corroboration**: the fraction of a client's entries that at least one
  *other* client also reports (honest users overlap with the crowd;
  fabricated URLs have no second witness);
- **clique similarity**: the maximum Jaccard similarity between this
  client's report set and any other client's (Sybil identities are run
  from one script and report near-identical sets).

A client is flagged when its volume is high AND either its corroboration
is low or it sits in a near-duplicate clique.  Flagged UUIDs can be
revoked, which removes their vote mass retroactively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, KeysView, Set

from .globaldb import ServerDB

__all__ = ["ClientProfile", "ReputationAnalyzer"]


@dataclass(frozen=True)
class ClientProfile:
    """Behavioural summary of one reporter."""

    uuid: str
    volume: int
    corroboration: float  # fraction of entries with >= 1 other witness
    max_similarity: float  # Jaccard vs the closest other client

    def __repr__(self) -> str:
        return (
            f"ClientProfile({self.uuid[:8]}…, volume={self.volume}, "
            f"corroboration={self.corroboration:.2f}, "
            f"similarity={self.max_similarity:.2f})"
        )


def _jaccard(a: Set, b: Set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


class ReputationAnalyzer:
    """Offline analysis over the global database's voting ledger."""

    def __init__(self, server: ServerDB):
        self.server = server

    def profiles(self) -> Dict[str, ClientProfile]:
        ledger = self.server.voting
        clients = ledger.clients()
        report_sets = {uuid: set(ledger.reports_of(uuid)) for uuid in clients}
        profiles = {}
        for uuid in clients:
            mine = report_sets[uuid]
            if mine:
                # uuid itself is one of each key's reporters.
                corroborated = sum(
                    1 for key in mine if ledger.stats(*key).reporters >= 2
                )
                corroboration = corroborated / len(mine)
            else:
                corroboration = 1.0
            max_similarity = max(
                (
                    _jaccard(mine, report_sets[other])
                    for other in clients
                    if other != uuid
                ),
                default=0.0,
            )
            profiles[uuid] = ClientProfile(
                uuid=uuid,
                volume=len(mine),
                corroboration=corroboration,
                max_similarity=max_similarity,
            )
        return profiles

    def flag_suspects(
        self,
        min_volume: int = 30,
        max_corroboration: float = 0.2,
        clique_similarity: float = 0.9,
    ) -> KeysView[str]:
        """UUIDs whose behaviour is distinctively malicious.

        High-volume reporters are flagged when nobody corroborates them
        (lone fabricator) or when another identity mirrors them almost
        exactly (Sybil clique) — but a clique member with honest-looking
        corroboration still needs the volume to trip the filter, so
        ordinary users who happen to overlap are safe.
        """
        # Ordered dict-as-set: flag order follows the ledger's client
        # order, so enforce() revokes (and mutates server change logs)
        # in the same order on every same-seed run.
        flagged: Dict[str, None] = {}
        for uuid, profile in self.profiles().items():
            if profile.volume < min_volume:
                continue
            if profile.corroboration <= max_corroboration:
                flagged[uuid] = None
            elif profile.max_similarity >= clique_similarity:
                flagged[uuid] = None
        return flagged.keys()

    def enforce(self, **thresholds) -> KeysView[str]:
        """Flag and revoke; returns the revoked UUIDs."""
        suspects = self.flag_suspects(**thresholds)
        for uuid in suspects:
            self.server.revoke(uuid)
        return suspects
