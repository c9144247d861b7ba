"""Single source of truth for failure classification.

Three views of the same facts, previously duplicated (and free to drift)
across ``core/detection.py``, ``core/measurement.py``, and
``circumvent/base.py``:

- simnet failure → :class:`BlockType` (the Figure-4 / Table-5 symptom);
- simnet failure → circumvention failure class (the protocol stage a
  transport failed at: ``dns | tcp | tls | http | other``);
- :class:`BlockType` → failure class (which stage a recorded symptom
  implicates, used when choosing a circumvention approach).

csaw-analyze rule CSL008 forbids inline exception→BlockType maps anywhere
else, so new failure modes must be registered here — where the
exhaustiveness assertions below will catch a half-finished mapping.

Lookups are O(1): the per-call ``isinstance`` list the old
``measurement._failure_block_type`` rebuilt on every failure is replaced
by ``functools.lru_cache`` memoization keyed on ``type(error)`` (see the
microbench note in DESIGN.md).  The memo is per-process and the mapped
function is pure (class → classification, independent of call order),
so trials stay deterministic under any worker sharding — csaw-analyze
CSA101 flags hand-rolled module-dict caches here for exactly that
reason.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Tuple, Type

from ..simnet.dns import DnsError, DnsTimeout, NxDomain, Refused, ServFail
from ..simnet.http import HttpTimeout
from ..simnet.tcp import ConnectionReset, ConnectTimeout, TcpError
from ..simnet.tls import TlsError, TlsReset, TlsTimeout
from .records import BlockType

__all__ = [
    "UnclassifiedFailureError",
    "FAILURE_BLOCK_TYPES",
    "BLOCK_TYPE_FAILURE_CLASS",
    "block_type_for",
    "dns_block_type",
    "failure_class",
    "failure_class_for",
]


class UnclassifiedFailureError(LookupError):
    """A failure type no taxonomy entry covers.

    Raised instead of silently defaulting (the old ``_dns_block_type``
    reported any unknown :class:`DnsError` subclass as ``DNS_TIMEOUT``,
    which would misattribute a new resolver failure mode in every
    Table-5 row derived from it).
    """

    def __init__(self, error: Exception):
        super().__init__(
            f"no BlockType mapping for {type(error).__module__}."
            f"{type(error).__qualname__}: {error!r}; register it in "
            "repro.core.taxonomy.FAILURE_BLOCK_TYPES"
        )
        self.error = error


#: Concrete failure → blocking symptom, ordered most-derived first so the
#: subclass fallback walk in :func:`block_type_for` stays correct.
FAILURE_BLOCK_TYPES: Tuple[Tuple[Type[Exception], BlockType], ...] = (
    (DnsTimeout, BlockType.DNS_TIMEOUT),
    (NxDomain, BlockType.DNS_NXDOMAIN),
    (ServFail, BlockType.DNS_SERVFAIL),
    (Refused, BlockType.DNS_REFUSED),
    (ConnectTimeout, BlockType.IP_TIMEOUT),
    (ConnectionReset, BlockType.IP_RST),
    (TlsTimeout, BlockType.SNI_TIMEOUT),
    (TlsReset, BlockType.SNI_RST),
    (HttpTimeout, BlockType.HTTP_TIMEOUT),
)

#: Failure-class bases, checked in order (ConnectionReset during an HTTP
#: exchange still classifies as "tcp": the reset is a transport symptom).
_FAILURE_CLASS_BASES: Tuple[Tuple[Type[Exception], str], ...] = (
    (DnsError, "dns"),
    (TcpError, "tcp"),
    (TlsError, "tls"),
    (HttpTimeout, "http"),
)

#: Which protocol stage each recorded symptom implicates.  The assertion
#: below keeps this total over BlockType, so adding an enum member
#: without deciding its stage fails at import time.
BLOCK_TYPE_FAILURE_CLASS: Dict[BlockType, str] = {
    BlockType.DNS_TIMEOUT: "dns",
    BlockType.DNS_NXDOMAIN: "dns",
    BlockType.DNS_SERVFAIL: "dns",
    BlockType.DNS_REFUSED: "dns",
    BlockType.DNS_REDIRECT: "dns",
    BlockType.IP_TIMEOUT: "tcp",
    BlockType.IP_RST: "tcp",
    BlockType.SNI_TIMEOUT: "tls",
    BlockType.SNI_RST: "tls",
    BlockType.HTTP_TIMEOUT: "http",
    BlockType.HTTP_RST: "http",
    BlockType.BLOCK_PAGE: "http",
    BlockType.SERVER_FILTERING: "other",
}

assert set(BLOCK_TYPE_FAILURE_CLASS) == set(BlockType), (
    "BLOCK_TYPE_FAILURE_CLASS must cover every BlockType; missing: "
    + ", ".join(
        sorted(t.value for t in set(BlockType) - set(BLOCK_TYPE_FAILURE_CLASS))
    )
)

# type(error) → classification, memoized per process.  Pure functions of
# the class: safe shared state under any worker sharding, unlike the
# hand-rolled module-dict caches they replace (CSA101).


@lru_cache(maxsize=None)
def _block_type_for_class(cls: Type[Exception]) -> Optional[BlockType]:
    for base, block_type in FAILURE_BLOCK_TYPES:
        if issubclass(cls, base):
            return block_type
    return None


@lru_cache(maxsize=None)
def _failure_class_for_class(cls: Type[Exception]) -> str:
    for base, name in _FAILURE_CLASS_BASES:
        if issubclass(cls, base):
            return name
    return "other"


def block_type_for(error: Exception) -> Optional[BlockType]:
    """Blocking symptom a transport failure suggests; None when it maps
    to no censorship mechanism (e.g. an application error)."""
    return _block_type_for_class(type(error))


def dns_block_type(error: DnsError) -> BlockType:
    """Symptom for a DNS-stage failure; exhaustive over the taxonomy.

    Raises :class:`UnclassifiedFailureError` for a :class:`DnsError`
    subclass with no registered mapping rather than guessing.
    """
    block_type = block_type_for(error)
    if block_type is None or BLOCK_TYPE_FAILURE_CLASS[block_type] != "dns":
        raise UnclassifiedFailureError(error)
    return block_type


def failure_class(error: Exception) -> str:
    """Protocol stage a failure belongs to: dns | tcp | tls | http | other."""
    return _failure_class_for_class(type(error))


def failure_class_for(block_type: BlockType) -> str:
    """Protocol stage a recorded blocking symptom implicates."""
    return BLOCK_TYPE_FAILURE_CLASS[block_type]
