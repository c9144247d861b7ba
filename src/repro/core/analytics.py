"""Consumer-side analytics over the global database (§4.2).

The paper: "The UUID also allows consumers of measurements to perform
user-centric analytics (e.g., number of users reporting measurements
from a certain AS)."  This module is that consumer: aggregate views over
the global database that researchers, rights groups, or the C-Saw
operators themselves would pull — reporter counts per AS, blocking-type
mixes, top blocked domains, and mechanisms that differ between ASes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..urlkit import parse_url, registered_domain
from .globaldb import GlobalEntry, ServerDB

__all__ = ["AsSummary", "MeasurementAnalytics"]


@dataclass(frozen=True)
class AsSummary:
    """One AS's censorship profile, as the crowd reported it."""

    asn: int
    blocked_urls: int
    blocked_domains: int
    reporters: int
    blocking_types: Tuple[Tuple[str, int], ...]  # (type, url count), sorted

    @property
    def dominant_type(self) -> Optional[str]:
        return self.blocking_types[0][0] if self.blocking_types else None


class MeasurementAnalytics:
    """Aggregations over a :class:`ServerDB`'s entries and votes."""

    def __init__(self, server: ServerDB):
        self.server = server

    # -- per-AS views ---------------------------------------------------------

    def _reporters_by_as(self, entries: List[GlobalEntry]) -> Dict[int, int]:
        """Clients vouching for any of ``entries``, counted per AS in
        first-entry order: one pass over the vouch sets."""
        live: Dict[int, Set[Tuple[str, int]]] = {}
        for entry in entries:
            live.setdefault(entry.asn, set()).add((entry.url, entry.asn))
        counts = dict.fromkeys(live, 0)
        ledger = self.server.voting
        for client_id in ledger.clients():
            vouched = ledger.reports_of(client_id)
            for asn, keys in live.items():
                if not keys.isdisjoint(vouched):
                    counts[asn] += 1
        return counts

    def reporters_per_as(self) -> Dict[int, int]:
        """Distinct reporting identities per AS (the paper's example)."""
        return self._reporters_by_as(self.server.all_entries())

    def as_summary(self, asn: int) -> AsSummary:
        entries = [e for e in self.server.all_entries() if e.asn == asn]
        domains = {registered_domain(parse_url(e.url).host) for e in entries}
        type_counts: Counter = Counter()
        for entry in entries:
            for stage in entry.stages:
                type_counts[stage.value] += 1
        return AsSummary(
            asn=asn,
            blocked_urls=len(entries),
            blocked_domains=len(domains),
            reporters=self._reporters_by_as(entries).get(asn, 0),
            blocking_types=tuple(type_counts.most_common()),
        )

    def all_as_summaries(self) -> List[AsSummary]:
        asns = sorted({e.asn for e in self.server.all_entries()})
        return [self.as_summary(asn) for asn in asns]

    # -- cross-AS views ----------------------------------------------------------

    def top_blocked_domains(self, limit: int = 10) -> List[Tuple[str, int]]:
        """Domains blocked in the most ASes (censorship consensus)."""
        per_domain: Dict[str, set] = defaultdict(set)
        for entry in self.server.all_entries():
            domain = registered_domain(parse_url(entry.url).host)
            per_domain[domain].add(entry.asn)
        ranked = sorted(
            ((domain, len(asns)) for domain, asns in per_domain.items()),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[:limit]

    def mechanism_heterogeneity(self) -> Dict[str, List[Tuple[int, str]]]:
        """Domains blocked *differently* across ASes (§2.3's insight).

        Returns {domain: [(asn, dominant mechanism), ...]} restricted to
        domains whose dominant mechanism differs between at least two
        ASes — the cases where knowing the per-AS mechanism changes the
        best circumvention choice.
        """
        per_domain: Dict[str, Dict[int, Counter]] = defaultdict(
            lambda: defaultdict(Counter)
        )
        for entry in self.server.all_entries():
            domain = registered_domain(parse_url(entry.url).host)
            for stage in entry.stages:
                per_domain[domain][entry.asn][stage.stage] += 1
        varied = {}
        for domain, by_asn in per_domain.items():
            dominants = [
                (asn, counts.most_common(1)[0][0])
                for asn, counts in sorted(by_asn.items())
                if counts
            ]
            if len({mech for _asn, mech in dominants}) > 1:
                varied[domain] = dominants
        return varied

