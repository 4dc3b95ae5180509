"""Placement-as-a-service: the long-running serving layer.

Turns the repo's one-shot pipeline (solve / incremental-delta / verify)
into a concurrent request-serving daemon: typed NDJSON protocol with
content-addressed digests (:mod:`.protocol`), an LRU result cache of
proven answers (:mod:`.cache`), admission control with priority
queueing / load shedding / request coalescing (:mod:`.broker`),
crash-isolated multiprocess workers (:mod:`.workers`), and a metrics
registry with Prometheus export (:mod:`.metrics`), assembled by
:class:`~repro.service.daemon.PlacementService` (:mod:`.daemon`) and
exercised by the seeded load generator (:mod:`.loadgen`).

Durability and recovery (:mod:`.journal`, :mod:`.client`): a
sha256-chained write-ahead journal of deployments and their acked
requests makes every acked commit survive ``kill -9``; a delta that
finds its deployment's session worker dead forks a fresh one; the
client library rides out daemon restarts with reconnects and idempotent
retries.
"""

from .broker import Broker, Ticket
from .cache import CacheStats, ResultCache
from .client import ServiceClient, ServiceUnavailable
from .cluster import (
    ClusterRouter,
    HashRing,
    LocalCluster,
    LocalShard,
    RemoteShard,
)
from .daemon import PlacementService, ServiceConfig
from .frontend import AsyncFrontend
from .journal import Journal, JournalCorruption, JournalRecord
from .loadgen import LoadgenConfig, run_loadgen
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .protocol import (
    DeltaRequest,
    HealthRequest,
    InvalidateRequest,
    MetricsRequest,
    PingRequest,
    ProtocolError,
    ReadyRequest,
    Response,
    ResponseStatus,
    SolveRequest,
    VerifyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from .workers import WorkerCrash, WorkerError, WorkerPool

__all__ = [
    "AsyncFrontend",
    "Broker",
    "CacheStats",
    "ClusterRouter",
    "Counter",
    "DeltaRequest",
    "Gauge",
    "HashRing",
    "HealthRequest",
    "Histogram",
    "InvalidateRequest",
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "LoadgenConfig",
    "LocalCluster",
    "LocalShard",
    "MetricsRegistry",
    "MetricsRequest",
    "PingRequest",
    "PlacementService",
    "ProtocolError",
    "ReadyRequest",
    "RemoteShard",
    "Response",
    "ResponseStatus",
    "ResultCache",
    "ServiceClient",
    "ServiceConfig",
    "ServiceUnavailable",
    "SolveRequest",
    "Ticket",
    "VerifyRequest",
    "WorkerCrash",
    "WorkerError",
    "WorkerPool",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "run_loadgen",
]
