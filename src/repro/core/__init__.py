"""C-Saw core: the paper's contribution, assembled from its modules."""

from .aggregation import UrlPrefixIndex, storage_key
from .analytics import AsSummary, MeasurementAnalytics
from .appcheck import AppReachabilityChecker, AppStatus
from .blockpage import phase1_looks_like_blockpage, phase2_is_blockpage
from .circumvention import CircumventionModule, fix_defeats
from .client import CSawClient
from .config import CSawConfig
from .detection import DetectionOutcome, measure_direct_path
from .fleet import (
    ClientCohort,
    FleetMetrics,
    run_fleet_storm,
    run_fleet_storm_sharded,
)
from .globaldb import (
    GlobalEntry,
    RegistrationError,
    ReportItem,
    ServerDB,
    SyncBatch,
)
from .localdb import LocalDatabase
from .measurement import MeasurementModule, ServedResponse
from .multihoming import MultihomingManager
from .records import BlockStatus, BlockType, URLRecord, decode_stages, encode_stages
from .reporting import GlobalView, ReportingService, ensure_collector
from .reputation import ClientProfile, ReputationAnalyzer
from .session import MeasurementSession
from .taxonomy import (
    UnclassifiedFailureError,
    block_type_for,
    dns_block_type,
    failure_class,
)
from .trace import SessionTrace, TraceEvent, TraceMode
from .voting import VoteStats, VotingLedger

__all__ = [
    "UrlPrefixIndex",
    "storage_key",
    "AsSummary",
    "MeasurementAnalytics",
    "AppReachabilityChecker",
    "AppStatus",
    "phase1_looks_like_blockpage",
    "phase2_is_blockpage",
    "CircumventionModule",
    "fix_defeats",
    "CSawClient",
    "CSawConfig",
    "DetectionOutcome",
    "measure_direct_path",
    "ClientCohort",
    "FleetMetrics",
    "run_fleet_storm",
    "run_fleet_storm_sharded",
    "GlobalEntry",
    "RegistrationError",
    "ReportItem",
    "ServerDB",
    "SyncBatch",
    "LocalDatabase",
    "MeasurementModule",
    "ServedResponse",
    "MultihomingManager",
    "BlockStatus",
    "BlockType",
    "URLRecord",
    "decode_stages",
    "encode_stages",
    "GlobalView",
    "ReportingService",
    "ensure_collector",
    "ClientProfile",
    "ReputationAnalyzer",
    "MeasurementSession",
    "UnclassifiedFailureError",
    "block_type_for",
    "dns_block_type",
    "failure_class",
    "SessionTrace",
    "TraceEvent",
    "TraceMode",
    "VoteStats",
    "VotingLedger",
]
