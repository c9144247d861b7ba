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
see :mod:`repro.planes`).  A report's plane is its reporter's: the
ledger records each client's plane once, at registration
(:meth:`VotingLedger.set_client_plane`), and no write path reads it.
Consumers that weight the criterion by plane fidelity
(:meth:`VotingLedger.weighted_stats`) read per-plane d-histograms: a
snapshot built from the vouch sets and the plane assignments on the
first per-plane read after a mutation, and dropped by every mutation.
While every client is on the default plane none is built.  The
per-plane histograms partition the aggregate one — merging them
bucket-wise reproduces ``_vote_hist`` exactly.

s_{j,k} and n_{j,k} are maintained **incrementally**: per key we keep a
histogram ``{d: count}`` of how many reporters currently spread their
vote over d URLs, so n is the sum of its counts.  When a client's report
count moves from d_old to d_new, only that client's keys are touched
(one count moves from bucket d_old to d_new), so :meth:`VotingLedger.stats`
is a dict read plus sums over the handful of distinct d values — no scan
over reporters.  Because the histogram holds integers, the incremental
path and the from-scratch recompute in ``tests/_reference_globaldb.py``
(which rebuilds each histogram from the vouch sets) produce
*bit-identical* floats: both sum ``count / d`` over the same sorted
buckets, and the property tests assert exact agreement.

**Vouch order.**  A client's vouch set is stored as a tuple of distinct
keys in report order, and every mutator returns the keys whose
statistics moved as a tuple in a documented order, so the order in
which a versioned store marks them (and with it the shard logs and
every delta pulled from them) follows the reports, never string
hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["DEFAULT_PLANE", "VoteStats", "VotingLedger"]

Key = Tuple[str, int]  # (url, asn)
Keys = Tuple[Key, ...]  # distinct keys, in a documented order
#: key -> plane -> {d: count}
PlaneHistograms = Dict[Key, Dict[str, Dict[int, int]]]

#: The plane of every client not registered under another: C-Saw's
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
    if len(hist) == 1:
        (d, count), = hist.items()
        return count / d
    votes = 0.0
    for d in sorted(hist):
        votes += hist[d] / d
    return votes


class VotingLedger:
    """Tracks which client vouches for which blocked (URL, AS) entries.

    Its state is stored once (DESIGN.md §20):

    - A vouch set is an immutable tuple of distinct keys in report
      order.  A change stores a new tuple (:meth:`_set_reports`), so
      the clients of one grouped upload share one tuple
      (:meth:`add_first_vouches`) and :meth:`reports_of` hands out the
      stored one without a copy.
    - A key is owned exactly when it has a d-histogram, and
      ``_canonical.keys() == _vote_hist.keys() ==`` the union of the
      vouch sets: each vouching client holds one count per key it
      vouches for, in bucket ``len(its vouch set)``, so the counts sum
      to n.  The key's one canonical tuple enters and leaves with its
      histogram; a writer that maps its keys through
      :meth:`canonical_keys` stores that one object in every vouch set.
    - A client's plane is stored once, in ``_plane_of``.  The per-plane
      histograms are derived from it and the vouch sets on read
      (:meth:`_plane_histograms`), and every mutator drops them.

    Orders: a first vouch and :meth:`set_client_reports` store the keys
    in argument order, duplicates dropped at their first occurrence;
    :meth:`add_client_reports` keeps the stored keys in place and
    appends the new ones in report order.  The mutators return the keys
    whose statistics moved: first the stored keys that left, plus those
    that stayed while d changed, in stored order; then the added keys,
    in new order.
    """

    def __init__(self) -> None:
        self._by_client: Dict[str, Keys] = {}
        # key -> the one tuple stored for it, for keys that have owners.
        self._canonical: Dict[Key, Key] = {}
        # key -> {d: number of reporters currently spreading over d URLs}
        self._vote_hist: Dict[Key, Dict[int, int]] = {}
        # client -> plane, non-default assignments only.
        self._plane_of: Dict[str, str] = {}
        # key -> plane -> {d: count}, a partition of _vote_hist: a
        # snapshot built by the first per-plane read after a mutation
        # (_plane_histograms), None until then.
        self._plane_hist: Optional[PlaneHistograms] = None

    # -- incremental histogram maintenance ------------------------------------

    def _hist_add(self, key: Key, d: int) -> None:
        """Add one count to the key's d bucket; an unowned key enters the
        histogram and canonical tables as the object given."""
        hist = self._vote_hist.get(key)
        if hist is None:
            self._vote_hist[key] = {d: 1}
            self._canonical[key] = key
        else:
            hist[d] = hist.get(d, 0) + 1

    def _hist_sub(self, key: Key, d: int) -> None:
        """Take one count out of the key's d bucket; with its last count
        the key leaves the histogram and canonical tables."""
        hist = self._vote_hist[key]
        count = hist[d] - 1
        if count:
            hist[d] = count
        else:
            del hist[d]
            if not hist:
                del self._vote_hist[key]
                del self._canonical[key]

    # -- plane assignment ------------------------------------------------------

    def set_client_plane(self, client_id: str, plane: str = DEFAULT_PLANE) -> None:
        """Record the measurement plane a client reports through: the
        plane of every report it makes, before or after this call."""
        if plane == DEFAULT_PLANE:
            self._plane_of.pop(client_id, None)
        else:
            self._plane_of[client_id] = plane
        self._plane_hist = None

    def _plane_histograms(self) -> Optional[PlaneHistograms]:
        """The per-plane histograms, or None while every client is on the
        default plane.  A snapshot: the first call after a mutation
        builds it in one pass over the clients, and later calls return
        it until the next mutation drops it."""
        if not self._plane_of:
            return None
        if self._plane_hist is not None:
            return self._plane_hist
        plane_hist: PlaneHistograms = {}
        plane_of = self._plane_of
        for client_id, keys in self._by_client.items():
            plane = plane_of.get(client_id, DEFAULT_PLANE)
            d = len(keys)
            for key in keys:
                by_plane = plane_hist.get(key)
                if by_plane is None:
                    plane_hist[key] = {plane: {d: 1}}
                    continue
                hist = by_plane.get(plane)
                if hist is None:
                    by_plane[plane] = {d: 1}
                else:
                    hist[d] = hist.get(d, 0) + 1
        self._plane_hist = plane_hist
        return plane_hist

    def plane_of(self, client_id: str) -> str:
        return self._plane_of.get(client_id, DEFAULT_PLANE)

    # -- mutation ------------------------------------------------------------

    def set_client_reports(self, client_id: str, keys: Iterable[Key]) -> Keys:
        """Replace the entries ``client_id`` vouches for with ``keys``,
        stored in argument order.

        Votes are recomputed implicitly: a client reporting d URLs gives
        1/d to each, so growing its report list dilutes its earlier votes
        — the PageRank-style normalization the paper leans on.  The same
        key set in another order keeps the stored tuple.

        Returns the keys whose (votes, reporters) statistics changed —
        what a versioned store must mark dirty for delta sync — in the
        class's affected order.
        """
        return self._set_reports(client_id, tuple(dict.fromkeys(keys)))

    def add_client_reports(self, client_id: str, keys: Sequence[Key]) -> Keys:
        """Add entries to a client's vouch set: the stored keys keep
        their places and the new ones follow in report order."""
        old_keys = self._by_client.get(client_id, ())
        return self._set_reports(
            client_id, tuple(dict.fromkeys((*old_keys, *keys)))
        )

    def add_first_vouches(
        self, sets: Sequence[Tuple[Keys, Sequence[str]]]
    ) -> None:
        """For each ``(vouch_set, client_ids)``, give every client of
        ``client_ids`` the entries of ``vouch_set`` as its first vouch
        set — equal to :meth:`add_client_reports` for each client in
        turn when ``vouch_set`` holds the keys it would store: distinct,
        in report order.

        The clients must be distinct and vouch for nothing yet.  The
        tuple given is stored for every client of its pair, one object
        shared by them.  A pair with no keys or no clients changes
        nothing.
        """
        sets = [pair for pair in sets if pair[0] and pair[1]]
        if not sets:
            return
        self._count_first_vouches(sets)
        self._plane_hist = None
        by_client = self._by_client
        for vouch_set, client_ids in sets:
            for client_id in client_ids:
                by_client[client_id] = vouch_set

    def _count_first_vouches(
        self, sets: Sequence[Tuple[Keys, Sequence[str]]]
    ) -> None:
        """Seed the d-histograms for clients that vouch for nothing yet:
        each ``(keys, client_ids)`` gives its k clients the same d
        distinct ``keys``, so ``hist[d] += k`` per key, set by set in
        order, so every bucket is created where one client at a time
        creates it.  A key with no histogram yet enters the histogram
        and canonical tables as the object given.  No old votes to
        retract or re-bucket, and a first vouch dilutes no earlier
        key."""
        canonical = self._canonical
        hists = self._vote_hist
        for keys, client_ids in sets:
            d = len(keys)
            count = len(client_ids)
            for key in keys:
                hist = hists.get(key)
                if hist is None:
                    hists[key] = {d: count}
                    canonical[key] = key
                else:
                    hist[d] = hist.get(d, 0) + count

    def canonical_keys(self, keys: Sequence[Key]) -> List[Key]:
        """``keys`` with each key that has owners replaced by the tuple
        the ledger stores for it (equal, and hashing alike), so a writer
        that passes the result on stores no second copy of a known key.
        Keys without owners come back as given.  One dict read per key."""
        get = self._canonical.get
        return list(map(get, keys, keys))

    def vouches(self, client_id: str) -> bool:
        """Whether the client vouches for any entry (cheap, no copy)."""
        return client_id in self._by_client

    def _set_reports(self, client_id: str, new_keys: Keys) -> Keys:
        """Store ``new_keys`` (distinct) as the client's vouch set and
        move the histograms, and so ownership, with it; returns the
        affected keys in the class's order.  The old tuple is only read:
        other clients may share it."""
        old_keys = self._by_client.get(client_id)
        if old_keys is None:
            if not new_keys:
                return ()
            # First vouch set for this client (the server-side hot path):
            # the count form with a count of one.
            self._count_first_vouches(((new_keys, (client_id,)),))
            self._plane_hist = None
            self._by_client[client_id] = new_keys
            return new_keys
        new_set = set(new_keys)
        d_old = len(old_keys)
        d_new = len(new_keys)
        if d_new == d_old and new_set.issuperset(old_keys):
            return ()  # the same keys: the stored order stands
        self._plane_hist = None
        hist_add = self._hist_add
        hist_sub = self._hist_sub
        affected: List[Key] = []
        for key in old_keys:
            if key not in new_set:
                hist_sub(key, d_old)
            elif d_new != d_old:
                # In before out: an owned key's histogram never empties.
                hist_add(key, d_new)
                hist_sub(key, d_old)
            else:
                continue  # stayed at the same d: its weight is untouched
            affected.append(key)
        old_set = set(old_keys)
        for key in new_keys:
            if key not in old_set:
                hist_add(key, d_new)
                affected.append(key)
        if new_keys:
            self._by_client[client_id] = new_keys
        else:
            del self._by_client[client_id]
        return tuple(affected)

    def revoke_client(self, client_id: str) -> Keys:
        """Drop a (malicious) client's influence entirely; returns its
        keys in stored order."""
        affected = self._set_reports(client_id, ())
        self._plane_of.pop(client_id, None)
        return affected

    # -- queries ------------------------------------------------------------

    def stats(self, url: str, asn: int) -> VoteStats:
        """Incrementally-maintained s/n for one key (no reporter scan)."""
        hist = self._vote_hist.get((url, asn))
        if hist is None:
            return VoteStats(votes=0.0, reporters=0)
        return VoteStats(votes=_hist_votes(hist), reporters=sum(hist.values()))

    def plane_stats(self, url: str, asn: int) -> Dict[str, VoteStats]:
        """Per-plane s/n for one key — the provenance breakdown."""
        key = (url, asn)
        plane_hists = self._plane_histograms()
        if plane_hists is None:
            if key not in self._vote_hist:
                return {}
            return {DEFAULT_PLANE: self.stats(url, asn)}
        return {
            plane: VoteStats(
                votes=_hist_votes(hist), reporters=sum(hist.values())
            )
            for plane, hist in sorted(plane_hists.get(key, {}).items())
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

    def has_reporters(self, url: str, asn: int) -> bool:
        """Whether any client vouches for the key (one dict read)."""
        return (url, asn) in self._vote_hist

    def client_count(self) -> int:
        return len(self._by_client)

    def clients(self) -> List[str]:
        return list(self._by_client)

    def reports_of(self, client_id: str) -> Keys:
        """The (URL, AS) entries this client currently vouches for, in
        stored order: the stored tuple itself, shared and immutable."""
        return self._by_client.get(client_id, ())
