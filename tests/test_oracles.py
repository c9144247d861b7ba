"""Closed-form oracles: each expected value is computed from a run's
inputs, never from another run or a golden.

Fleet convergence (DESIGN.md §9.3).  A plane's target is the AS's shard
version when its last reporter posts, at the first sweep at or after
its latest ``report_at``.  Every client applies that version on its
next pull, which comes due within one ``pull_interval`` of its last and
is served at the first sweep after that.  So every plane of every AS
converges, whatever its reporters posted (a last post that changed
nothing leaves a target most clients already hold), and

    onset + convergence <= max(report_at) + pull_interval + tick.

An AS converges with its latest plane, so the bound holds per AS over
all its planes' reporters.  Each plane's detection window bounds
``report_at - onset`` from the inputs alone.

Table 5 stalls.  A blocked direct-path measurement that stalls on
timeouts alone spends exactly the client's timeout schedule in the
stage the censor hit: the SYN retries for an IP drop, the stub's
query timeouts for a dropped DNS query, the GET timeout for a dropped
request and the TLS drop timeout for a dropped ClientHello.  A
SERVFAIL answer waits out the resolver's stall per attempt plus one
round trip to the resolver, so its span exceeds the stalls by one
positive RTT per attempt.

Voting (paper §5).  Each client's one vote is split evenly over the d
URLs it vouches for, so URL j holds n_j reporters and s_j = Σ 1/d_i
votes over its reporters i, and an entry is served exactly when n_j
reaches ``min_reporters`` and s_j reaches ``min_votes``.

Encore (PAPERS.md).  Each of an AS's R probe reporters keeps each wave
URL independently with probability 1 - ``miss_rate``, and the reporters
due in a tick post in one write call, most of them absorbed.  So each
key's n is Binomial(R, 1 - ``miss_rate``); the n over all keys sum to
the items absorbed, and the s to one vote per reporter that posted.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from repro.censor.policy import CensorPolicy, Matcher
from repro.core.detection import measure_direct_path
from repro.core.fleet import ClientCohort, run_fleet_storm
from repro.core.globaldb import ReportItem, ServerDB
from repro.core.records import BlockType
from repro.core.voting import VoteStats
from repro.planes.csaw import BROWSE_WINDOW
from repro.scenarios.mechanisms import build_rule
from repro.simnet import dns, http, tcp, tls
from repro.simnet.world import World
from tests._reference_fleet import run_storm


def assert_convergence_bound(cohort):
    """Every converged AS and plane of a finished storm on ``cohort``
    converged by its latest report plus one pull interval and one tick."""
    metrics = cohort.metrics
    slack = cohort.pull_interval + cohort.tick
    for st in cohort.shards:
        onset = st.wave_started_at
        latest = []
        for group in st.groups:
            last = max(group.report_at)
            latest.append(last)
            convergence = metrics.convergence_by_plane[group.name][st.asn]
            if convergence >= 0.0:
                assert onset + convergence <= last + slack, (st.asn, group.name)
        convergence = metrics.convergence_by_as[st.asn]
        if convergence >= 0.0:
            assert onset + convergence <= max(latest) + slack, st.asn


STORM = dict(seed=3, n_ases=6, clients_per_as=50)
SPARSE_LIST = [
    {"kind": "csaw", "fraction": 0.05},
    {"kind": "problist", "fraction": 0.05, "coverage": 0.1},
]
#: Each storm's latest possible post after onset: the C-Saw browse
#: window, or the probe list's default 600 s scan interval.
CASES = {
    # No wave URL: every report is empty and the shard never changes,
    # so the target is the version clients get from their first pull.
    "no-wave-urls": (dict(urls_per_as=0), BROWSE_WINDOW[1]),
    # A one-URL wave that a 10%-coverage probe list mostly misses: the
    # probe list's last post changes nothing.
    "sparse-probe-list": (dict(urls_per_as=1, planes=SPARSE_LIST), 600.0),
    # Sweeps between laps, so served slices wrap past the last rank.
    "fractional-tick": (
        dict(urls_per_as=1, planes=SPARSE_LIST, tick=600.0 / 6.5), 600.0
    ),
}


class TestFleetConvergence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_as_and_plane_converges_within_the_bound(self, case):
        kwargs, window = CASES[case]
        cohort = run_storm(ClientCohort, **STORM, **kwargs)
        metrics = cohort.metrics
        if "tick" not in kwargs:
            # run_storm drives the storm exactly as run_fleet_storm does.
            assert metrics == run_fleet_storm(**STORM, **kwargs)
        by_as = metrics.convergence_by_as
        assert len(by_as) == STORM["n_ases"]
        assert min(by_as.values()) >= 0.0, by_as
        for plane, converged in metrics.convergence_by_plane.items():
            assert min(converged.values()) >= 0.0, (plane, converged)
        assert_convergence_bound(cohort)
        # The same bound from the inputs alone: no report lands later
        # than its plane's window after onset.
        assert max(by_as.values()) <= window + 600.0 + cohort.tick


class TestVotingOracles:
    ASN = 9
    URLS = [f"http://vote{j}.example/" for j in range(8)]

    @pytest.mark.parametrize("c, d", [(1, 3), (2, 200), (3, 7), (5, 40)])
    def test_vote_mass_is_one_vote_split_over_d(self, c, d):
        """Each identity's one vote is split over its d reports (§5): a
        clique URL gets c/d votes from c reporters, a flood URL 1/d from
        its one fabricator."""
        server = ServerDB(entry_ttl=None)
        metrics = run_fleet_storm(
            seed=c * 1000 + d, n_ases=2, clients_per_as=100, urls_per_as=4,
            asn_base=61000, server=server,
            planes=[
                {"kind": "csaw", "fraction": 0.05},
                {"kind": "clique", "fraction": c / 100, "urls_each": d},
                {"kind": "flood", "fraction": c / 100, "urls_each": d},
            ],
        )
        assert metrics.reporters_by_plane == {"csaw": 10, "clique": 2 * c,
                                              "flood": 2 * c}
        assert metrics.pending_at_horizon == 0
        ledger = server.voting
        by_plane = {}
        for uuid in ledger.clients():
            by_plane.setdefault(ledger.plane_of(uuid), []).append(
                ledger.reports_of(uuid)
            )
        assert all(len(keys) == d for keys in by_plane["clique"])
        assert all(len(keys) == d for keys in by_plane["flood"])
        clique = set().union(*by_plane["clique"])
        assert len(clique) == 2 * d  # one shared list per AS
        for url, asn in sorted(clique):
            assert server.stats_for(url, asn) == VoteStats(votes=c / d,
                                                           reporters=c)
        flood = set().union(*by_plane["flood"])
        assert len(flood) == 2 * c * d  # no two identities share a URL
        for url, asn in sorted(flood):
            assert server.stats_for(url, asn) == VoteStats(votes=1 / d,
                                                           reporters=1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_served_exactly_when_reporters_and_votes_reach_the_criterion(
        self, seed
    ):
        """Hand-built uploads: client i vouches for d_i URLs of one AS in
        one post.  ``blocked_for_as`` and a full ``sync_batch_for_as``
        both serve exactly the URLs with n_j >= ``min_reporters`` and
        s_j >= ``min_votes``, each ``min_votes`` lying strictly between
        two achievable sums so that float rounding decides no case."""
        rng = random.Random(seed)
        vouches = [rng.sample(self.URLS, rng.randint(1, 5)) for _ in range(9)]
        server = ServerDB(entry_ttl=None)
        for urls in vouches:
            server.post_update(server.register(now=0.0), [
                ReportItem(url=url, asn=self.ASN,
                           stages=(BlockType.HTTP_TIMEOUT,), measured_at=1.0)
                for url in urls
            ], now=1.0)
        n = Counter(url for urls in vouches for url in urls)
        s = {url: Fraction(0) for url in n}
        for urls in vouches:
            for url in urls:
                s[url] += Fraction(1, len(urls))
        sums = [Fraction(0), *sorted(set(s.values()))]
        cuts = [0.0, *((a + b) / 2 for a, b in zip(sums, sums[1:])),
                sums[-1] + 1]
        for min_reporters in (1, 2, 3, 5):
            for cut in cuts:
                min_votes = float(cut)
                expected = sorted(
                    url for url in n
                    if n[url] >= min_reporters and s[url] >= cut
                )
                listed = server.blocked_for_as(
                    self.ASN, 2.0, min_reporters, min_votes
                )
                batch = server.sync_batch_for_as(
                    self.ASN, 2.0, None, min_reporters, min_votes
                )
                assert batch.full
                assert sorted(entry.url for entry in listed) == expected, \
                    (min_reporters, cut)
                assert sorted(batch.urls) == expected, (min_reporters, cut)


#: Stalls made of timeouts only: mechanism -> (URL scheme, the stage
#: span it stalls, that span in closed form).
TIMEOUT_STALLS = {
    "ip-drop": ("http", "tcp", sum(tcp.SYN_RETRIES)),
    "dns-timeout": (
        "http", "local-dns", dns.TIMEOUT_ATTEMPTS * dns.QUERY_TIMEOUT
    ),
    "http-drop": ("http", "http", http.GET_TIMEOUT),
    "tls-drop": ("https", "tls", tls.DROP_TIMEOUT),
}


def measure_stall(mechanism, scheme, seed):
    """One direct-path measurement in a one-AS world whose censor
    applies ``mechanism`` to one site; returns the blocked outcome and
    the client's access network."""
    world = World(seed=seed)
    world.add_public_resolver()
    world.web.add_site("stall.example", location="us-east")
    world.web.add_page("http://stall.example/", size_bytes=50_000)
    ip = world.network.hosts_by_name["stall.example"].ip
    policy = CensorPolicy()
    policy.add_rule(build_rule(
        Matcher(domains={"stall.example"}, ips={ip}), (mechanism,)
    ))
    isp = world.add_isp(17557, "isp", policy=policy)
    client, access = world.add_client("t5", [isp])
    ctx = world.new_ctx(client, access)
    outcome = world.run_process(
        measure_direct_path(world, ctx, f"{scheme}://stall.example/")
    )
    assert outcome.blocked, outcome
    return outcome, access


class TestTable5StallOracles:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("mechanism", sorted(TIMEOUT_STALLS))
    def test_timeout_stall_is_the_timeout_schedule(self, mechanism, seed):
        scheme, stage, expected = TIMEOUT_STALLS[mechanism]
        outcome, _access = measure_stall(mechanism, scheme, seed)
        spans = outcome.trace.stage_durations()
        assert spans[stage] == pytest.approx(expected, abs=1e-9), spans

    @pytest.mark.parametrize("seed", [0, 7])
    def test_servfail_stall_is_the_resolver_stall_plus_one_rtt_each(
        self, seed
    ):
        outcome, access = measure_stall("dns-servfail", "http", seed)
        span = outcome.trace.stage_durations()["local-dns"]
        stalls = dns.SERVFAIL_ATTEMPTS * dns.SERVFAIL_DELAY
        assert span >= stalls
        # Each attempt's round trip includes the access link's.
        per_attempt_rtt = (span - stalls) / dns.SERVFAIL_ATTEMPTS
        assert per_attempt_rtt > access.access_rtt


def binomial_band(n, p, alpha):
    """The narrowest ``[lo, hi]`` with P(X < lo) <= alpha / 2 and
    P(X > hi) <= alpha / 2, for X ~ Binomial(n, p)."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                 - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
        for k in range(n + 1)
    ]
    lo, below = 0, 0.0
    while below + pmf[lo] <= alpha / 2:
        below += pmf[lo]
        lo += 1
    hi, above = n, 0.0
    while above + pmf[hi] <= alpha / 2:
        above += pmf[hi]
        hi -= 1
    return lo, hi


class TestEncoreOracles:
    """An Encore-only cohort against the plane's closed forms.

    The seeds are fixed in advance, and the binomial checks share one
    false-alarm budget: half of it over every key of every seed, half
    on the total over all of them.  A seed that fails is a finding to
    fix or record, never one to re-roll."""

    SEEDS = (101, 102, 103, 104, 105)
    N_ASES = 4
    CLIENTS = 400
    URLS = 12
    FRACTION = 0.25  # 100 reporters per AS
    MISS = 0.2
    FALSE_ALARM = 1e-3

    def storm(self, seed):
        """One storm; returns the server, the cohort, and the reporters
        whose upload reached the server with at least one item."""
        server = ServerDB(entry_ttl=None)
        posted = set()
        post_updates = server.post_updates

        def record(uploads, now):
            posted.update(uuid for uuid, items in uploads if items)
            return post_updates(uploads, now)

        server.post_updates = record
        cohort = run_storm(
            ClientCohort, seed=seed, n_ases=self.N_ASES,
            clients_per_as=self.CLIENTS, urls_per_as=self.URLS,
            asn_base=62000, server=server,
            planes=[{"kind": "encore", "fraction": self.FRACTION,
                     "miss_rate": self.MISS}],
        )
        assert cohort.metrics.pending_at_horizon == 0
        return server, cohort, posted

    @staticmethod
    def wave_stats(server, cohort):
        """Each wave key's VoteStats, zero for a key nobody reported."""
        return [
            server.stats_for(url, st.asn)
            for st in cohort.shards for url in st.wave_urls
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_n_sums_to_reports_and_s_to_one_vote_per_reporter(self, seed):
        server, cohort, posted = self.storm(seed)
        stats = self.wave_stats(server, cohort)
        assert sum(stat.reporters for stat in stats) == \
            cohort.metrics.reports_absorbed
        assert len(posted) == server.voting.client_count()
        assert math.isclose(
            sum(stat.votes for stat in stats), len(posted), rel_tol=1e-9
        )

    def test_reports_per_key_are_binomial(self):
        reporters = max(1, round(self.CLIENTS * self.FRACTION))
        keep = 1.0 - self.MISS
        keys = len(self.SEEDS) * self.N_ASES * self.URLS
        lo, hi = binomial_band(reporters, keep, self.FALSE_ALARM / 2 / keys)
        total = 0
        for seed in self.SEEDS:
            server, cohort, _ = self.storm(seed)
            assert cohort.metrics.reporters_by_plane == {
                "encore": self.N_ASES * reporters
            }
            for stat in self.wave_stats(server, cohort):
                assert lo <= stat.reporters <= hi, (seed, stat, lo, hi)
                total += stat.reporters
        lo, hi = binomial_band(reporters * keys, keep, self.FALSE_ALARM / 2)
        assert lo <= total <= hi, (total, lo, hi)
