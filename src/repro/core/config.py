"""C-Saw client configuration (§4, §7 knobs)."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CSawConfig"]


@dataclass
class CSawConfig:
    """All tunables of one C-Saw client.

    Defaults follow the paper's recommendations: p ≤ 0.25 (§7.1), two
    redundant requests (Figure 6a), random exploration every n = 5-th
    access (§4.3.2), parallel redundancy (Figure 5a).
    """

    # Probability of re-measuring the direct path for a URL the global_DB
    # says is blocked (resilience to false reports vs. overhead, Table 6).
    probe_probability: float = 0.1
    # local_DB record TTL; expiry re-measures the URL (Scenario A churn).
    record_ttl: float = 24 * 3600.0
    # Every n-th access to a blocked URL uses a random circumvention
    # approach so improving approaches get rediscovered.
    explore_every_n: int = 5
    # "parallel" duplicates direct + circumvention requests; "serial"
    # waits for direct-path detection before circumventing (Figure 5a).
    redundancy_mode: str = "parallel"
    # Delay before launching the redundant request; if the direct path
    # answers within the delay the duplicate is skipped (Figure 5b/c).
    redundant_delay: float = 0.0
    # Total copies for not-measured URLs: 1 disables redundancy, 2 is the
    # paper's sweet spot, 3 hurts the tail (Figure 6a).
    max_redundant_requests: int = 2
    # Anonymity preference: restrict circumvention to anonymous methods.
    prefer_anonymity: bool = False
    # URL aggregation in the local_DB (Figure 6b ablation).
    aggregation_enabled: bool = True
    # Background cadence (seconds) for report upload / blocked-list pull.
    report_interval: float = 600.0
    download_interval: float = 600.0
    # Confidence criterion applied to downloaded entries (§5): require at
    # least this many distinct reporters / this much vote mass s_{j,k}
    # before trusting a crowdsourced entry.
    min_reporters: int = 1
    min_votes: float = 0.0
    # Trace-bus recording mode: "full" records every session event, "off"
    # records nothing.  Verdicts and served PLTs are bit-identical in both
    # modes — only the trace payload differs.
    trace_mode: str = "full"

    @classmethod
    def developing_region(cls, **overrides) -> "CSawConfig":
        """Preset for data-constrained users (§8: "the value of p can be
        lowered in developing regions albeit at the cost of reduced
        resilience to false reports").  Lower probe probability, longer
        record TTLs (fewer re-measurements), staggered duplicates so the
        common case transfers one copy only.
        """
        defaults = dict(
            probe_probability=0.02,
            record_ttl=7 * 24 * 3600.0,
            redundant_delay=2.0,
        )
        defaults.update(overrides)
        return cls(**defaults)

    def __post_init__(self) -> None:
        # A zero interval paces the loop only by RPC latency, NaN stops
        # it, and a negative one fails the kernel's first timeout.
        for name in ("report_interval", "download_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0: {value!r}")
        if not 0.0 <= self.probe_probability <= 1.0:
            raise ValueError(f"p must be in [0,1]: {self.probe_probability!r}")
        # The `not x >= 0` form rejects NaN too: a NaN TTL never expires a
        # record, and a NaN or negative stagger silently means none.
        if not self.record_ttl > 0.0:
            raise ValueError(f"record_ttl must be > 0: {self.record_ttl!r}")
        if not self.redundant_delay >= 0.0:
            raise ValueError(
                f"redundant_delay must be >= 0: {self.redundant_delay!r}"
            )
        if self.redundancy_mode not in ("parallel", "serial"):
            raise ValueError(f"unknown redundancy mode: {self.redundancy_mode!r}")
        if self.max_redundant_requests < 1:
            raise ValueError("need at least one request copy")
        if self.explore_every_n < 2:
            raise ValueError("explore_every_n must be >= 2")
        if not self.min_reporters >= 1:
            raise ValueError(f"min_reporters must be >= 1: {self.min_reporters!r}")
        if not self.min_votes >= 0.0:
            raise ValueError(f"min_votes must be >= 0: {self.min_votes!r}")
        from .trace import TraceMode

        TraceMode.parse(self.trace_mode)  # raises on unknown modes
