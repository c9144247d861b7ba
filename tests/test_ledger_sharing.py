"""The voting ledger stores its state once (DESIGN.md §20).

A grouped upload's fresh clients share one vouch set object, which no
later change edits in place, and every (URL, AS) key that has owners is
stored as one tuple: the ledger's canonical table holds exactly the
owned keys (the keys of the histogram table and the union of the vouch
sets), as the objects the histogram table holds, and uploads through
``ServerDB`` store those objects in every vouch set.  A key's reporters
are counted in its histogram, not stored per key, so a grouped upload
grows the ledger by its vouch sets only.
"""

import random
import tracemalloc

from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.voting import VotingLedger
from tests._reference_globaldb import vouched_keys

ASN = 64500


def _reports(urls, asn=ASN):
    return [
        ReportItem(url=url, asn=asn, stages=(BlockType.BLOCK_PAGE,),
                   measured_at=1.0)
        for url in urls
    ]


def assert_keys_stored_once(ledger):
    """Each vouch set is a tuple of distinct keys, and the canonical
    table holds exactly the owned keys, the keys of the histogram table
    and of the vouch sets, each as the object the histograms hold and
    every vouch set holds."""
    table = ledger._canonical
    assert table.keys() == ledger._vote_hist.keys()
    assert table.keys() == vouched_keys(ledger)
    for key, stored in table.items():
        assert stored is key
    for key in ledger._vote_hist:
        assert table[key] is key
    for vouch_set in ledger._by_client.values():
        assert type(vouch_set) is tuple
        assert len(set(vouch_set)) == len(vouch_set)
        for key in vouch_set:
            assert table[key] is key


def test_grouped_upload_shares_one_vouch_set():
    server = ServerDB(entry_ttl=None)
    uuids = [server.register(now=0.0) for _ in range(6)]
    urls = [f"http://u{i}.example/" for i in range(12)]
    keys = [(url, ASN) for url in urls + urls[:3]]
    reports = _reports(urls + urls[:3])
    server.post_updates([(uuid, reports) for uuid in uuids], now=1.0)
    ledger = server.voting
    # The first UUID takes the one-client step; the other five are new
    # clients absorbed as one block.
    first, *block = [ledger._by_client[uuid] for uuid in uuids]
    assert all(vouch_set is block[0] for vouch_set in block)
    for vouch_set in (first, block[0]):
        # Report order, each key once at its first occurrence.
        assert vouch_set == tuple(dict.fromkeys(keys))
    assert_keys_stored_once(ledger)


def test_a_change_to_one_client_leaves_the_shared_set_alone():
    server = ServerDB(entry_ttl=None)
    uuids = [server.register(now=0.0) for _ in range(5)]
    urls = [f"http://u{i}.example/" for i in range(4)]
    reports = _reports(urls)
    server.post_updates([(uuid, reports) for uuid in uuids], now=1.0)
    ledger = server.voting
    shared = ledger._by_client[uuids[1]]
    before = list(shared)
    server.post_dissent(uuids[1], urls[0], ASN, now=2.0)
    server.post_update(uuids[2], _reports(["http://extra.example/"]), now=2.0)
    server.revoke(uuids[3])
    assert list(shared) == before
    assert ledger._by_client[uuids[4]] is shared
    assert len(ledger.reports_of(uuids[1])) == 3
    assert len(ledger.reports_of(uuids[2])) == 5
    assert not ledger.vouches(uuids[3])
    assert ledger.stats(urls[0], ASN).reporters == 3
    assert_keys_stored_once(ledger)


def test_one_by_one_uploads_store_one_tuple_per_key():
    server = ServerDB(entry_ttl=None)
    shared_url = "http://shared.example/"
    uuids = [server.register(now=0.0) for _ in range(20)]
    for i, uuid in enumerate(uuids):
        server.post_update(
            uuid, _reports([shared_url, f"http://own{i}.example/"]),
            now=1.0 + i,
        )
    ledger = server.voting
    (stored,) = [key for key in ledger._vote_hist if key == (shared_url, ASN)]
    for uuid in uuids:
        (mine,) = [key for key in ledger._by_client[uuid] if key == stored]
        assert mine is stored
    assert_keys_stored_once(ledger)


def test_key_table_holds_exactly_the_owned_keys():
    server = ServerDB(entry_ttl=None)
    a, b, c = (server.register(now=0.0) for _ in range(3))
    urls = [f"http://u{i}.example/" for i in range(3)]
    ledger = server.voting
    reports = _reports(urls)
    server.post_updates([(a, reports), (b, reports), (c, reports)], now=1.0)
    server.post_update(a, _reports(["http://alone.example/"], asn=ASN + 1),
                       now=2.0)
    assert_keys_stored_once(ledger)
    assert len(ledger._canonical) == 4

    server.post_dissent(b, urls[0], ASN, now=3.0)  # two owners left
    server.post_dissent(a, "http://alone.example/", ASN + 1, now=3.0)
    assert_keys_stored_once(ledger)
    assert set(ledger._canonical) == {(url, ASN) for url in urls}

    server.revoke(c)
    server.post_dissent(a, urls[0], ASN, now=4.0)  # its last owner
    assert_keys_stored_once(ledger)
    assert set(ledger._canonical) == {(url, ASN) for url in urls[1:]}

    # Churn: clients come, vouch and go; the table never outgrows the
    # keys that have owners.
    for round_ in range(50):
        uuid = server.register(now=5.0 + round_)
        server.post_update(
            uuid, _reports([urls[1], f"http://churn{round_}.example/"]),
            now=5.0 + round_,
        )
        assert len(ledger._canonical) == 3
        server.revoke(uuid)
        assert len(ledger._canonical) == 2
    assert_keys_stored_once(ledger)

    for uuid in (a, b):
        server.revoke(uuid)
    assert ledger._canonical == {} and ledger._vote_hist == {}


def _ledger_state(ledger):
    return (
        {client: set(keys) for client, keys in ledger._by_client.items()},
        {key: dict(hist) for key, hist in ledger._vote_hist.items()},
        dict(ledger._canonical),
    )


def test_an_empty_first_vouch_block_changes_nothing():
    ledger = VotingLedger()
    known = ("http://known.example/", ASN)
    ledger.set_client_reports("c0", [known])
    before = _ledger_state(ledger)
    ledger.add_first_vouches([])
    ledger.add_first_vouches([((known, ("http://new.example/", ASN)), [])])
    ledger.add_first_vouches([((), ["c1", "c2"])])
    assert _ledger_state(ledger) == before
    assert not ledger.has_reporters("http://new.example/", ASN)
    assert not ledger.vouches("c1") and ledger.client_count() == 1
    assert ledger.stats(*known).reporters == 1


def test_grouped_uploads_grow_the_ledger_by_their_vouch_sets_only():
    """2,000 clients post one 50-URL list in 20 groups of 100: the
    ledger stores 40 vouch sets and 50 histograms, and no per-key set of
    reporter identities, which alone would take megabytes."""
    server = ServerDB(entry_ttl=None)
    uuids = [server.register(now=0.0) for _ in range(2000)]
    reports = _reports([f"http://u{i}.example/" for i in range(50)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, len(uuids), 100):
            server.post_updates(
                [(uuid, reports) for uuid in uuids[start:start + 100]],
                now=1.0,
            )
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert server.voting.stats("http://u0.example/", ASN).reporters == 2000
    assert grown < 1 << 20, (
        f"20 grouped uploads grew traced memory by {grown / 1024:,.0f} KiB"
    )


def test_encore_uploads_grow_the_ledger_by_one_tuple_per_client():
    """2,000 fresh clients each post their own ~40-of-50-key thinning
    of one list, one ``post_update`` each, as Encore-style probes do.
    No two clients share a vouch set, so each stores its own: a tuple of
    its keys, about 400 bytes with its ledger slot (a 40-key set alone
    took 2,264)."""
    rng = random.Random(27)
    urls = [f"http://u{i}.example/" for i in range(50)]
    server = ServerDB(entry_ttl=None)
    # One warm-up client lists every URL, so the entries, the shard log
    # and the canonical keys exist before the measured uploads.
    server.post_update(server.register(now=0.0), _reports(urls), now=0.5)
    uploads = [
        (server.register(now=0.0),
         _reports([url for url in urls if rng.random() < 0.8]))
        for _ in range(2000)
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for uuid, reports in uploads:
            server.post_update(uuid, reports, now=1.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    ledger = server.voting
    assert ledger.client_count() == 2001
    assert ledger.reports_of(uploads[-1][0]) == tuple(
        (item.url, ASN) for item in uploads[-1][1]
    )
    per_client = grown / len(uploads)
    assert per_client < 1024, (
        f"2,000 one-client uploads grew traced memory by "
        f"{per_client:,.0f} B per client"
    )
