"""Latency, jitter, loss, and transfer-time models.

The reproduction does not ship packets; it computes the *time* each protocol
step takes.  The models here are deliberately simple but capture the pieces
that shape the paper's results:

- per-path RTT with lognormal jitter (congested proxies show heavy tails,
  cf. Figure 1a's Germany-1/UK/Japan curves);
- random loss, surfaced to the TCP model as retransmission delay;
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
    of a multiplicative lognormal factor (0 = deterministic).  ``loss`` is
    the per-round packet-loss probability surfaced to the transport.
    """

    base_rtt: float
    jitter_sigma: float = 0.08
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.base_rtt < 0:
            raise ValueError(f"negative base_rtt: {self.base_rtt!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss!r}")
        if self.jitter_sigma < 0:
            raise ValueError(f"negative jitter_sigma: {self.jitter_sigma!r}")

    def sample_rtt(self, rng: random.Random) -> float:
        """One RTT sample: base RTT scaled by lognormal jitter."""
        if self.jitter_sigma == 0:
            return self.base_rtt
        return self.base_rtt * rng.lognormvariate(0.0, self.jitter_sigma)

    def sample_loss(self, rng: random.Random) -> bool:
        """Whether a given round experiences loss."""
        return self.loss > 0 and rng.random() < self.loss


def slow_start_rounds(size_bytes: int, init_cwnd: int = INIT_CWND_BYTES) -> int:
    """Number of additional round trips TCP slow start needs for a payload.

    0 when the object fits in the initial window; grows logarithmically
    (window doubles each round) otherwise.
    """
    if size_bytes <= 0:
        return 0
    if size_bytes <= init_cwnd:
        return 0
    # Window doubles each RTT: cwnd * (2^r+1 - 1) bytes after r extra rounds.
    return max(0, math.ceil(math.log2(size_bytes / init_cwnd + 1)) )


def transfer_time(
    size_bytes: int,
    rtt: float,
    bandwidth_bps: float,
    init_cwnd: int = INIT_CWND_BYTES,
) -> float:
    """Time to move ``size_bytes`` after the connection is established.

    Models one request round trip, slow-start round trips, and serialization
    at ``bandwidth_bps`` (bits per second).
    """
    if size_bytes < 0:
        raise ValueError(f"negative size: {size_bytes!r}")
    if bandwidth_bps <= 0:
        raise ValueError(f"bandwidth must be positive: {bandwidth_bps!r}")
    rounds = slow_start_rounds(size_bytes, init_cwnd)
    return rtt + rounds * rtt + (size_bytes * 8.0) / bandwidth_bps
