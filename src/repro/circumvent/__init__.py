"""Circumvention substrate: direct path, local fixes, and relay systems."""

from .base import FetchResult, Transport, classify_failure, fetch_pipeline
from .direct import DirectTransport
from .fronting import DomainFrontingTransport
from .holdon import HoldOnTransport
from .https_fix import HttpsTransport
from .ip_hostname import IpAsHostnameTransport
from .lantern import LanternNetwork, LanternSystem, LanternTransport
from .public_dns import PublicDnsTransport
from .relay import relay_fetch
from .static_proxy import PROXY_FLEET_SPEC, StaticProxyTransport, build_proxy_fleet
from .tor import TorClient, TorCircuit, TorNetwork, TorRelay, TorTransport
from .uproxy import FriendProxyTransport

__all__ = [
    "FetchResult",
    "Transport",
    "classify_failure",
    "fetch_pipeline",
    "DirectTransport",
    "DomainFrontingTransport",
    "HoldOnTransport",
    "HttpsTransport",
    "IpAsHostnameTransport",
    "LanternNetwork",
    "LanternSystem",
    "LanternTransport",
    "PublicDnsTransport",
    "relay_fetch",
    "PROXY_FLEET_SPEC",
    "StaticProxyTransport",
    "build_proxy_fleet",
    "TorClient",
    "TorCircuit",
    "TorNetwork",
    "TorRelay",
    "TorTransport",
    "FriendProxyTransport",
]
