"""Latency, jitter, and transfer-time models.

The reproduction does not ship packets; it computes the *time* each protocol
step takes.  The models here are deliberately simple but capture the pieces
that shape the paper's results:

- per-path RTT with lognormal jitter (congested proxies show heavy tails,
  cf. Figure 1a's Germany-1/UK/Japan curves);
- TCP slow-start: small pages are RTT-bound, large pages bandwidth-bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

__all__ = [
    "LatencyModel",
    "slow_start_rounds",
    "transfer_time",
    "INIT_CWND_BYTES",
    "MSS_BYTES",
]

# Initial congestion window (10 segments of 1460 B, RFC 6928).
MSS_BYTES = 1460
INIT_CWND_BYTES = 10 * MSS_BYTES


@dataclass
class LatencyModel:
    """Samples round-trip times for one path segment.

    ``base_rtt`` is the median RTT in seconds.  ``jitter_sigma`` is the sigma
    of a multiplicative lognormal factor (0 = deterministic).  No path
    loses packets.
    """

    base_rtt: float
    jitter_sigma: float = 0.08

    def __post_init__(self) -> None:
        if self.base_rtt < 0:
            raise ValueError(f"negative base_rtt: {self.base_rtt!r}")
        if self.jitter_sigma < 0:
            raise ValueError(f"negative jitter_sigma: {self.jitter_sigma!r}")

    def sample_rtt(self, rng: random.Random) -> float:
        """One RTT sample: base RTT scaled by lognormal jitter."""
        if self.jitter_sigma == 0:
            return self.base_rtt
        return self.base_rtt * rng.lognormvariate(0.0, self.jitter_sigma)


def slow_start_rounds(size_bytes: int) -> int:
    """Number of additional round trips TCP slow start needs for a payload.

    0 when the object fits in the initial window; grows logarithmically
    (window doubles each round) otherwise.
    """
    if size_bytes <= 0:
        return 0
    if size_bytes <= INIT_CWND_BYTES:
        return 0
    # Window doubles each RTT: cwnd * (2^r+1 - 1) bytes after r extra rounds.
    return max(0, math.ceil(math.log2(size_bytes / INIT_CWND_BYTES + 1)) )


def transfer_time(
    size_bytes: int,
    rtt: float,
    bandwidth_bps: float,
) -> float:
    """Time to move ``size_bytes`` after the connection is established.

    Models one request round trip, slow-start round trips, and serialization
    at ``bandwidth_bps`` (bits per second).
    """
    if size_bytes < 0:
        raise ValueError(f"negative size: {size_bytes!r}")
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive: {bandwidth_bps!r}")
    rounds = slow_start_rounds(size_bytes)
    return rtt + rounds * rtt + (size_bytes * 8.0) / bandwidth_bps
