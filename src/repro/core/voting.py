"""Vote accounting for crowdsourced measurements (§5).

Each client holds one unit of vote and spreads it evenly across the d
blocked URLs it currently reports: v_{i,j,k} = 1/d for client i, URL j,
AS k.  The server keeps, per (URL, AS):

- s_{j,k}: the sum of votes — small s with large n signals a clique
  spamming many URLs each;
- n_{j,k}: how many distinct clients vouch for it — small n signals a
  lone (possibly malicious) reporter.

Consumers apply a confidence criterion over (s, n) before trusting an
entry, which bounds the influence any single registered identity can buy.

**Measurement planes.**  Reports can arrive through planes of different
fidelity (in-browser C-Saw, Encore-style probes, generated probe lists —
see :mod:`repro.planes`).  The ledger optionally keys its d-histograms
per plane so consumers can weight the criterion by plane fidelity
(:meth:`VotingLedger.weighted_stats`).  Plane tracking is *dormant*
until the first client is tagged with a non-default plane
(:meth:`VotingLedger.set_client_plane`): the dormant hot path is the
pre-plane code plus one boolean check, and a dormant ledger's
:meth:`stats` is bit-identical to a plane-free one (property-tested).
When active, the per-plane histograms partition the aggregate one —
merging them bucket-wise reproduces ``_vote_hist`` exactly.

s_{j,k} is maintained **incrementally**: per key we keep a histogram
``{d: count}`` of how many reporters currently spread their vote over d
URLs.  When a client's report count moves from d_old to d_new, only that
client's keys are touched (decrement the d_old bucket, increment d_new),
so :meth:`VotingLedger.stats` is a dict read plus a sum over the handful
of distinct d values — no scan over reporters.  Because the histogram
holds integers, the incremental path and the from-scratch
:meth:`recompute_stats` reference produce *bit-identical* floats (both
sum ``count / d`` over the same sorted buckets); property tests assert
exact agreement, mirroring the ``linear_on_*`` pattern in
``censor/compiled.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

__all__ = ["DEFAULT_PLANE", "VoteStats", "VotingLedger"]

Key = Tuple[str, int]  # (url, asn)

#: The plane every report belongs to unless tagged otherwise: C-Saw's
#: own in-browser redundant-request plane.  Canonical home of the name
#: (``repro.planes`` re-exports it) so the core layer never imports the
#: planes package.
DEFAULT_PLANE = "csaw"


@dataclass(frozen=True)
class VoteStats:
    """Robustness estimates for one (URL, AS) entry.

    ``reporters`` is a head-count: an ``int`` from the unweighted
    queries, and a float from :meth:`VotingLedger.weighted_stats`, where
    each plane's reporters count at that plane's weight.
    """

    votes: float  # s_{j,k}
    reporters: float  # n_{j,k}; integral unless plane-weighted

    def passes(self, min_reporters: int = 1, min_votes: float = 0.0) -> bool:
        return self.reporters >= min_reporters and self.votes >= min_votes


def _hist_votes(hist: Dict[int, int]) -> float:
    """Σ count/d over the histogram, summed in sorted-bucket order so the
    incremental and from-scratch paths add the same floats in the same
    order (exact agreement, not approximate)."""
    if not hist:
        return 0.0
    if len(hist) == 1:
        (d, count), = hist.items()
        return count / d
    votes = 0.0
    for d in sorted(hist):
        votes += hist[d] / d
    return votes


class VotingLedger:
    """Tracks which client vouches for which blocked (URL, AS) entries."""

    def __init__(self) -> None:
        self._by_client: Dict[str, Set[Key]] = {}
        self._by_key: Dict[Key, Set[str]] = {}
        # key -> {d: number of reporters currently spreading over d URLs}
        self._vote_hist: Dict[Key, Dict[int, int]] = {}
        # Per-plane refinement of _vote_hist, maintained only once a
        # non-default plane appears (dormant single-plane ledgers pay one
        # boolean per mutation).  client -> plane holds non-default
        # assignments only; key -> plane -> {d: count} partitions the
        # aggregate histogram when active.
        self._plane_of: Dict[str, str] = {}
        self._plane_hist: Dict[Key, Dict[str, Dict[int, int]]] = {}
        self._planes_active = False

    # -- incremental histogram maintenance ------------------------------------

    def _hist_add(self, key: Key, d: int) -> None:
        hist = self._vote_hist.get(key)
        if hist is None:
            self._vote_hist[key] = {d: 1}
        else:
            hist[d] = hist.get(d, 0) + 1

    def _hist_sub(self, key: Key, d: int) -> None:
        hist = self._vote_hist[key]
        count = hist[d] - 1
        if count:
            hist[d] = count
        else:
            del hist[d]
            if not hist:
                del self._vote_hist[key]

    def _plane_hist_add(self, key: Key, plane: str, d: int) -> None:
        by_plane = self._plane_hist.get(key)
        if by_plane is None:
            self._plane_hist[key] = {plane: {d: 1}}
            return
        hist = by_plane.get(plane)
        if hist is None:
            by_plane[plane] = {d: 1}
        else:
            hist[d] = hist.get(d, 0) + 1

    def _plane_hist_sub(self, key: Key, plane: str, d: int) -> None:
        by_plane = self._plane_hist[key]
        hist = by_plane[plane]
        count = hist[d] - 1
        if count:
            hist[d] = count
        else:
            del hist[d]
            if not hist:
                del by_plane[plane]
                if not by_plane:
                    del self._plane_hist[key]

    # -- plane assignment ------------------------------------------------------

    def set_client_plane(self, client_id: str, plane: str = DEFAULT_PLANE) -> None:
        """Tag a client's reports with a measurement plane.

        The first non-default assignment flips the ledger from dormant to
        plane-tracking: the per-plane histograms are rebuilt once from
        current state, and every later mutation mirrors into them.  May be
        called before or after the client's first report.
        """
        old = self._plane_of.get(client_id, DEFAULT_PLANE)
        if plane == old:
            return
        if plane == DEFAULT_PLANE:
            del self._plane_of[client_id]
        else:
            self._plane_of[client_id] = plane
        if not self._planes_active:
            if plane == DEFAULT_PLANE:
                return  # still dormant: nothing non-default anywhere
            self._activate_planes()
            return
        keys = self._by_client.get(client_id)
        if keys:
            d = len(keys)
            for key in keys:
                self._plane_hist_sub(key, old, d)
                self._plane_hist_add(key, plane, d)

    def _activate_planes(self) -> None:
        """Build the per-plane histograms from scratch (first non-default
        plane assignment).  One pass over clients — the same bucket
        contents incremental mirroring maintains from here on."""
        self._planes_active = True
        self._plane_hist.clear()
        plane_of = self._plane_of
        for client_id, keys in self._by_client.items():
            plane = plane_of.get(client_id, DEFAULT_PLANE)
            d = len(keys)
            for key in keys:
                self._plane_hist_add(key, plane, d)

    def plane_of(self, client_id: str) -> str:
        return self._plane_of.get(client_id, DEFAULT_PLANE)

    # -- mutation ------------------------------------------------------------

    def set_client_reports(self, client_id: str, keys: List[Key]) -> Set[Key]:
        """Replace the set of blocked entries ``client_id`` vouches for.

        Votes are recomputed implicitly: a client reporting d URLs gives
        1/d to each, so growing its report list dilutes its earlier votes
        — the PageRank-style normalization the paper leans on.

        Returns the keys whose (votes, reporters) statistics changed —
        the set a versioned store must mark dirty for delta sync.
        """
        return self._set_reports(client_id, set(keys))

    def add_client_reports(self, client_id: str, keys: List[Key]) -> Set[Key]:
        """Add entries to a client's vouch set (keeping existing ones)."""
        old_keys = self._by_client.get(client_id)
        merged = set(keys) if old_keys is None else old_keys | set(keys)
        return self._set_reports(client_id, merged)

    def _set_reports(self, client_id: str, new_keys: Set[Key]) -> Set[Key]:
        old_keys = self._by_client.get(client_id, set())
        if new_keys == old_keys:
            return set()
        if not old_keys:
            # First vouch set for this client (the server-side hot path:
            # every cohort reporter lands here once per wave).  No old
            # votes to retract or re-bucket — one pass seeds ownership
            # and the d-histograms (the per-plane mirror too, when
            # active), with the same bucket contents the general path
            # below would produce.
            d_new = len(new_keys)
            by_key = self._by_key
            hists = self._vote_hist
            mirror = self._planes_active
            plane = self._plane_of.get(client_id, DEFAULT_PLANE) if mirror else ""
            plane_hists = self._plane_hist
            for key in new_keys:
                owners = by_key.get(key)
                if owners is None:
                    by_key[key] = {client_id}
                else:
                    owners.add(client_id)
                hist = hists.get(key)
                if hist is None:
                    hists[key] = {d_new: 1}
                else:
                    hist[d_new] = hist.get(d_new, 0) + 1
                if mirror:
                    by_plane = plane_hists.get(key)
                    if by_plane is None:
                        plane_hists[key] = {plane: {d_new: 1}}
                    else:
                        hist = by_plane.get(plane)
                        if hist is None:
                            by_plane[plane] = {d_new: 1}
                        else:
                            hist[d_new] = hist.get(d_new, 0) + 1
            self._by_client[client_id] = new_keys
            return set(new_keys)
        d_old = len(old_keys)
        d_new = len(new_keys)
        by_key = self._by_key
        hist_add = self._hist_add
        hist_sub = self._hist_sub
        mirror = self._planes_active
        plane = self._plane_of.get(client_id, DEFAULT_PLANE) if mirror else ""
        affected = old_keys ^ new_keys
        for key in old_keys - new_keys:
            owners = by_key.get(key)
            if owners is not None:
                owners.discard(client_id)
                if not owners:
                    del by_key[key]
            hist_sub(key, d_old)
            if mirror:
                self._plane_hist_sub(key, plane, d_old)
        if d_new != d_old and old_keys:
            staying = old_keys & new_keys
            for key in staying:
                hist_sub(key, d_old)
                hist_add(key, d_new)
                if mirror:
                    self._plane_hist_sub(key, plane, d_old)
                    self._plane_hist_add(key, plane, d_new)
            affected |= staying
        for key in new_keys - old_keys:
            owners = by_key.get(key)
            if owners is None:
                by_key[key] = {client_id}
            else:
                owners.add(client_id)
            hist_add(key, d_new)
            if mirror:
                self._plane_hist_add(key, plane, d_new)
        if new_keys:
            self._by_client[client_id] = new_keys
        else:
            self._by_client.pop(client_id, None)
        return affected

    def revoke_client(self, client_id: str) -> Set[Key]:
        """Drop a (malicious) client's influence entirely."""
        affected = self.set_client_reports(client_id, [])
        self._plane_of.pop(client_id, None)
        return affected

    # -- queries ------------------------------------------------------------

    def stats(self, url: str, asn: int) -> VoteStats:
        """Incrementally-maintained s/n for one key (no reporter scan)."""
        key = (url, asn)
        reporters = self._by_key.get(key)
        if not reporters:
            return VoteStats(votes=0.0, reporters=0)
        return VoteStats(
            votes=_hist_votes(self._vote_hist.get(key, {})),
            reporters=len(reporters),
        )

    def recompute_stats(self, url: str, asn: int) -> VoteStats:
        """From-scratch reference for :meth:`stats` (the executable spec).

        Rebuilds the d-histogram by walking every reporter of the key;
        kept O(reporters) on purpose so property tests can assert the
        incremental path agrees exactly.
        """
        key = (url, asn)
        reporters = self._by_key.get(key, set())
        hist: Dict[int, int] = {}
        for client_id in reporters:
            d = len(self._by_client.get(client_id, ()))
            if d:
                hist[d] = hist.get(d, 0) + 1
        return VoteStats(votes=_hist_votes(hist), reporters=len(reporters))

    def stats_for_plane(self, url: str, asn: int, plane: str) -> VoteStats:
        """s/n restricted to reporters of one measurement plane."""
        key = (url, asn)
        if not self._planes_active:
            # Dormant ledger: every reporter is on the default plane.
            if plane == DEFAULT_PLANE:
                return self.stats(url, asn)
            return VoteStats(votes=0.0, reporters=0)
        hist = self._plane_hist.get(key, {}).get(plane)
        if not hist:
            return VoteStats(votes=0.0, reporters=0)
        return VoteStats(votes=_hist_votes(hist), reporters=sum(hist.values()))

    def plane_stats(self, url: str, asn: int) -> Dict[str, VoteStats]:
        """Per-plane s/n for one key — the provenance breakdown."""
        key = (url, asn)
        if not self._planes_active:
            reporters = self._by_key.get(key)
            if not reporters:
                return {}
            return {DEFAULT_PLANE: self.stats(url, asn)}
        return {
            plane: VoteStats(
                votes=_hist_votes(hist), reporters=sum(hist.values())
            )
            for plane, hist in sorted(self._plane_hist.get(key, {}).items())
        }

    def weighted_stats(
        self, url: str, asn: int, weights: Dict[str, float]
    ) -> VoteStats:
        """Fidelity-weighted s/n: Σ_p w_p·s_p and Σ_p w_p·n_p.

        The per-plane-aware confidence criterion — a coarse plane's
        votes and reporter head-count both count at its weight (planes
        missing from ``weights`` count at 1.0).  With every weight at
        1.0 this reproduces :meth:`stats` exactly (bucket partition),
        so the unweighted criterion is the degenerate case.
        """
        votes = 0.0
        reporters = 0.0
        for plane, stats in self.plane_stats(url, asn).items():
            weight = weights.get(plane, 1.0)
            votes += weight * stats.votes
            reporters += weight * stats.reporters
        return VoteStats(votes=votes, reporters=reporters)

    def recompute_plane_stats(self, url: str, asn: int, plane: str) -> VoteStats:
        """From-scratch reference for :meth:`stats_for_plane` (the
        executable spec): walk the key's reporters, keep those assigned
        to ``plane``, rebuild the histogram."""
        key = (url, asn)
        plane_of = self._plane_of
        hist: Dict[int, int] = {}
        reporters = 0
        for client_id in self._by_key.get(key, set()):
            if plane_of.get(client_id, DEFAULT_PLANE) != plane:
                continue
            reporters += 1
            d = len(self._by_client.get(client_id, ()))
            if d:
                hist[d] = hist.get(d, 0) + 1
        return VoteStats(votes=_hist_votes(hist), reporters=reporters)

    def reporters_for(self, url: str, asn: int) -> Set[str]:
        return set(self._by_key.get((url, asn), set()))

    def has_reporters(self, url: str, asn: int) -> bool:
        """Cheap existence check (no defensive copy)."""
        return bool(self._by_key.get((url, asn)))

    def client_count(self) -> int:
        return len(self._by_client)

    def clients(self) -> List[str]:
        return list(self._by_client)

    def reports_of(self, client_id: str) -> Set[Key]:
        """The (URL, AS) entries this client currently vouches for."""
        return set(self._by_client.get(client_id, set()))
