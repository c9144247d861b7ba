"""Tests for the two-phase block-page detector (§4.3.1)."""

import random

from repro.censor.blockpages import (
    DEFAULT_BLOCKPAGE_HTML,
    build_blockpage_corpus,
    build_normal_corpus,
)
from repro.core.blockpage import phase1_looks_like_blockpage, phase2_is_blockpage
from repro.simnet.http import _iframe_blockpage_html
from repro.simnet.web import make_normal_html


class TestPhase1:
    def test_default_blockpage_detected(self):
        assert phase1_looks_like_blockpage(DEFAULT_BLOCKPAGE_HTML)

    def test_iframe_splice_detected(self):
        assert phase1_looks_like_blockpage(_iframe_blockpage_html("block.isp.pk"))

    def test_normal_page_not_flagged(self):
        html = make_normal_html("www.news.com", "/article/1", [])
        assert not phase1_looks_like_blockpage(html)

    def test_large_page_never_flagged(self):
        # Even with blocking phrases, a large page is real content
        # (e.g. a news article ABOUT censorship).
        html = "<html><body>" + ("access denied " * 2000) + "</body></html>"
        assert not phase1_looks_like_blockpage(html)

    def test_empty_html_not_flagged(self):
        assert not phase1_looks_like_blockpage("")

    def test_recall_and_precision_on_corpus(self):
        """The paper's ~80 % recall / zero false positives (§4.3.1)."""
        rng = random.Random(42)
        blockpages = build_blockpage_corpus(rng, n_isps=47)
        normals = build_normal_corpus(rng, n_pages=200)

        caught = sum(
            1 for sample in blockpages if phase1_looks_like_blockpage(sample.html)
        )
        recall = caught / len(blockpages)
        assert 0.7 <= recall <= 0.9, f"phase-1 recall {recall:.2f} out of band"

        false_positives = sum(
            1 for html in normals if phase1_looks_like_blockpage(html)
        )
        assert false_positives == 0

    def test_overt_samples_all_caught(self):
        rng = random.Random(7)
        for sample in build_blockpage_corpus(rng, n_isps=47):
            if sample.overt:
                assert phase1_looks_like_blockpage(sample.html), sample.isp


class TestPhase2:
    def test_tiny_direct_vs_large_circumvented_is_blockpage(self):
        assert phase2_is_blockpage(direct_size=900, circumvented_size=360_000)

    def test_similar_sizes_not_blockpage(self):
        assert not phase2_is_blockpage(direct_size=300_000, circumvented_size=360_000)

    def test_zero_circumvented_size_is_inconclusive(self):
        assert not phase2_is_blockpage(direct_size=900, circumvented_size=0)

    def test_threshold_boundary(self):
        # The size-ratio threshold is 0.30 of the circumvented size.
        assert phase2_is_blockpage(29, 100)
        assert not phase2_is_blockpage(30, 100)

    def test_camouflaged_blockpage_caught_by_phase2(self):
        """Phase-1 misses bland pages; phase 2 nails them by size."""
        rng = random.Random(3)
        camouflaged = [
            s for s in build_blockpage_corpus(rng, n_isps=47) if not s.overt
        ]
        assert camouflaged, "corpus should include camouflage pages"
        for sample in camouflaged:
            assert not phase1_looks_like_blockpage(sample.html)
            assert phase2_is_blockpage(len(sample.html), 250_000)
