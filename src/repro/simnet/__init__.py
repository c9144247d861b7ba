"""Simulated-network substrate: event kernel, topology, and protocol stack."""

from .engine import AllOf, AnyOf, Environment, Event, Process, Timeout
from .flow import ClientLoadTracker, FlowContext
from .latency import LatencyModel, transfer_time
from .rng import RngRegistry
from .topology import AccessNetwork, AutonomousSystem, Host, Network
from .web import EmbeddedRef, Site, Web, WebPage
from .world import World

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "ClientLoadTracker",
    "FlowContext",
    "LatencyModel",
    "transfer_time",
    "RngRegistry",
    "AccessNetwork",
    "AutonomousSystem",
    "Host",
    "Network",
    "EmbeddedRef",
    "Site",
    "Web",
    "WebPage",
    "World",
]
