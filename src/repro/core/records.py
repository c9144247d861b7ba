"""URL record vocabulary: blocking status, blocking types, DB records.

Mirrors Table 3 of the paper: each local_DB record tracks the URL, the AS
it was measured from, the measurement time, the blocking status, and one
blocking type per *stage* (multi-stage blocking — e.g. ISP-B's DNS
blocking followed by HTTP/HTTPS drops — fills several stage slots).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List

__all__ = [
    "BlockStatus",
    "BlockType",
    "URLRecord",
    "encode_stages",
    "decode_stages",
]


class BlockStatus(enum.Enum):
    NOT_MEASURED = "not-measured"
    BLOCKED = "blocked"
    NOT_BLOCKED = "not-blocked"


class BlockType(enum.Enum):
    """Symptom-level blocking type, as observed on the direct path."""

    DNS_TIMEOUT = "dns-timeout"  # "No DNS" in Figure 2
    DNS_NXDOMAIN = "dns-nxdomain"
    DNS_SERVFAIL = "dns-servfail"
    DNS_REFUSED = "dns-refused"
    DNS_REDIRECT = "dns-redirect"  # "DNS Redir"
    IP_TIMEOUT = "tcp-timeout"  # "No HTTP Resp" / TCP connection timeout
    IP_RST = "tcp-rst"  # "RST"
    HTTP_TIMEOUT = "http-get-timeout"
    HTTP_RST = "http-rst"
    BLOCK_PAGE = "block-page"  # "Block Page w/o Redir" or via redirect
    SNI_TIMEOUT = "sni-timeout"
    SNI_RST = "sni-rst"
    # The *content provider* withholds content from the client's region
    # (HTTP 451-style geo filtering, §8) — not on-path censorship, but
    # circumventable the same way: through a relay outside the region.
    SERVER_FILTERING = "server-filtering"

    @property
    def stage(self) -> str:
        """Where the symptom appears: dns | ip | http | tls | server."""
        name = self.value
        if name.startswith("dns"):
            return "dns"
        if name.startswith("tcp"):
            return "ip"
        if name.startswith("sni"):
            return "tls"
        if name.startswith("server"):
            return "server"
        return "http"

    @property
    def hostname_scoped(self) -> bool:
        """True when the censor filters a hostname/IP, not a specific URL.

        DNS, IP, and SNI blocking cannot distinguish paths on the same
        host, so the aggregation policy collapses such records onto the
        base URL (§4.4).  Server-side geo filtering applies region-wide
        per provider, so it aggregates the same way.
        """
        return self.stage in ("dns", "ip", "tls", "server")


# -- compact stage-list codec (columnar sync wire format) ----------------------
#
# A stage list travels as one small integer: each stage is a 4-bit
# nibble (1-based index into BlockType definition order, 0 terminates),
# most-recently-appended stage in the low nibble.  The encoding is
# *order-preserving* — decode returns the exact observation order the
# reporter recorded — which is what lets the batched delta-sync path
# rebuild entries bit-identical to the per-row object path.

_BLOCK_TYPES: tuple = ()  # filled below, after the enum exists
# Nibble by member value: a BlockType key would hash through the
# Python-level ``Enum.__hash__`` on every lookup, while the value string
# caches its hash.
_STAGE_NIBBLE: dict = {}


def encode_stages(stages) -> int:
    """Pack an ordered stage list into one int (13 types → 4 bits each)."""
    code = 0
    nibble = _STAGE_NIBBLE
    for stage in stages:
        code = (code << 4) | nibble[stage._value_]
    return code


def decode_stages(code: int) -> List[BlockType]:
    """Unpack :func:`encode_stages` output, restoring observation order."""
    stages: List[BlockType] = []
    types = _BLOCK_TYPES
    while code:
        stages.append(types[(code & 0xF) - 1])
        code >>= 4
    stages.reverse()
    return stages


@dataclass
class URLRecord:
    """One local_DB entry (Table 3)."""

    url: str
    asn: int
    measured_at: float  # T_m
    status: BlockStatus
    stages: List[BlockType] = field(default_factory=list)
    global_posted: bool = False

    def is_expired(self, now: float, ttl: float) -> bool:
        return now - self.measured_at > ttl

    @property
    def hostname_scoped(self) -> bool:
        return any(stage.hostname_scoped for stage in self.stages)

    def merge_stages(self, other_stages: List[BlockType]) -> None:
        """Union in stages observed by another measurement, stable order."""
        for stage in other_stages:
            if stage not in self.stages:
                self.stages.append(stage)

    def __repr__(self) -> str:
        kinds = ",".join(s.value for s in self.stages) or "-"
        return (
            f"URLRecord({self.url!r}, AS{self.asn}, {self.status.value}, "
            f"[{kinds}], t={self.measured_at:.1f})"
        )


_BLOCK_TYPES = tuple(BlockType)
assert len(_BLOCK_TYPES) <= 15, "stage nibble codec needs BlockType to fit 4 bits"
_STAGE_NIBBLE = {stage._value_: i + 1 for i, stage in enumerate(_BLOCK_TYPES)}
