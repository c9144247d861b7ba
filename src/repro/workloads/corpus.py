"""Synthetic web corpus: an Alexa-like population of sites.

C-Saw measures whatever its users browse, so experiments need a browsable
web: sites with Zipf-distributed popularity, categories (the censored ones
— porn, political, religious — mirror the paper's Pakistan case study),
multiple pages per site, and embedded objects served partly from shared
CDN hosts (the vector through which the pilot study discovered CDN
blocking, §7.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from ..simnet.web import EmbeddedRef
from ..simnet.world import World

__all__ = ["SiteSpec", "Corpus", "build_corpus", "CATEGORY_MIX"]

CATEGORY_MIX: List[Tuple[str, float]] = [
    ("general", 0.30),
    ("news", 0.15),
    ("social", 0.10),
    ("video", 0.10),
    ("shopping", 0.10),
    ("porn", 0.10),
    ("political", 0.08),
    ("religious", 0.07),
]

_SITE_LOCATIONS = [
    ("us-east", 0.3),
    ("us-west", 0.1),
    ("uk", 0.1),
    ("netherlands", 0.1),
    ("germany", 0.1),
    ("global-anycast", 0.2),
    ("singapore", 0.1),
]

ZIPF_EXPONENT = 0.9  # site popularity ~ 1 / rank**s
_N_CDNS = 3  # shared CDN hostnames serving embedded objects


@dataclass
class SiteSpec:
    """Blueprint for one site before materialization."""

    hostname: str
    category: str
    rank: int  # 1 = most popular
    location: str
    page_paths: List[str]
    page_sizes: Dict[str, int]
    cdn_refs: Dict[str, List[EmbeddedRef]]

    @property
    def base_url(self) -> str:
        return f"http://{self.hostname}/"


@dataclass
class Corpus:
    """A generated site population, optionally materialized into a world."""

    sites: List[SiteSpec]
    cdn_hostnames: List[str]
    # Running sums of the Zipf weights 1 / rank**s in site order, built
    # once: ``choices(weights=...)`` would re-sum them on every draw.
    _cum_weights: List[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._cum_weights = list(accumulate(
            1.0 / (site.rank ** ZIPF_EXPONENT) for site in self.sites
        ))

    def domains_in_categories(self, categories: Sequence[str]) -> List[str]:
        wanted = set(categories)
        return [s.hostname for s in self.sites if s.category in wanted]

    def sample_site(self, rng: random.Random) -> SiteSpec:
        return rng.choices(self.sites, cum_weights=self._cum_weights)[0]

    def materialize(self, world: World) -> None:
        """Create every site, page, and CDN node inside ``world``."""
        for cdn in self.cdn_hostnames:
            if world.web.site_for(cdn) is None:
                world.web.add_site(
                    cdn,
                    location="global-anycast",
                    bandwidth_bps=200e6,
                    extra_rtt=0.002,
                    catch_all=_cdn_object_factory(cdn),
                )
        for spec in self.sites:
            if world.web.site_for(spec.hostname) is not None:
                continue
            world.web.add_site(
                spec.hostname,
                location=spec.location,
                supports_https=True,
                supports_fronting=spec.category in ("video", "social"),
            )
            for path in spec.page_paths:
                world.web.add_page(
                    f"http://{spec.hostname}{path}",
                    size_bytes=spec.page_sizes[path],
                    embedded=spec.cdn_refs.get(path, []),
                    category=spec.category,
                )


def _cdn_object_factory(cdn_hostname: str):
    import zlib

    from ..simnet.web import WebPage

    def factory(path: str) -> WebPage:
        # Deterministic pseudo-size derived from the path (stable across
        # processes, unlike built-in hash()).
        size = 8_000 + (zlib.crc32(f"{cdn_hostname}{path}".encode()) % 40_000)
        # A binary-ish object: it keeps no html, and ``page.html``
        # renders the generic page on each read.
        return WebPage(
            url=f"http://{cdn_hostname}{path}",
            size_bytes=size,
            category="cdn-object",
        )

    return factory


def build_corpus(
    n_sites: int = 300,
    seed: int = 0,
    cdn_probability: float = 0.5,
) -> Corpus:
    """Generate ``n_sites`` site blueprints (deterministic in ``seed``)."""
    rng = random.Random(seed)
    categories = [c for c, _w in CATEGORY_MIX]
    cat_weights = [w for _c, w in CATEGORY_MIX]
    loc_names = [l for l, _w in _SITE_LOCATIONS]
    loc_weights = [w for _l, w in _SITE_LOCATIONS]
    cdns = [f"cdn{i}.contentcache.net" for i in range(_N_CDNS)]

    tlds = ["com", "org", "net", "info", "pk"]
    sites = []
    for rank in range(1, n_sites + 1):
        category = rng.choices(categories, weights=cat_weights)[0]
        hostname = f"www.{category}{rank}.{rng.choice(tlds)}"
        n_pages = rng.randint(1, 6)
        paths = ["/"] + [
            f"/{rng.choice(['news', 'watch', 'article', 'page', 'media'])}/{i}"
            for i in range(1, n_pages)
        ]
        sizes = {}
        cdn_refs: Dict[str, List[EmbeddedRef]] = {}
        for path in paths:
            sizes[path] = int(
                min(1_500_000, max(10_000, rng.lognormvariate(11.4, 0.8)))
            )
            refs = []
            if rng.random() < cdn_probability:
                for obj in range(rng.randint(1, 5)):
                    cdn = rng.choice(cdns)
                    refs.append(
                        EmbeddedRef(
                            url=f"http://{cdn}/{hostname}{path if path != '/' else ''}/obj{obj}.jpg",
                            size_bytes=rng.randint(5_000, 60_000),
                        )
                    )
            if refs:
                cdn_refs[path] = refs
        sites.append(
            SiteSpec(
                hostname=hostname,
                category=category,
                rank=rank,
                location=rng.choices(loc_names, weights=loc_weights)[0],
                page_paths=paths,
                page_sizes=sizes,
                cdn_refs=cdn_refs,
            )
        )
    return Corpus(sites=sites, cdn_hostnames=cdns)
