"""Seeded load generator for the placement service.

Replays a deterministic mixed workload from concurrent client threads
against anything with ``handle(request, timeout) -> Response`` -- a
:class:`~repro.service.daemon.PlacementService`, a
:class:`~repro.service.cluster.ClusterRouter` or
:class:`~repro.service.cluster.LocalCluster`, or a daemon or cluster
front-end over TCP -- and measures what the serving layer is for:

* **cold solves**   -- distinct instances, every one a cache miss; the
  first ``deployments`` of them also register the named deployments
  the delta phase evolves;
* **warm repeats**  -- the same instances again, answered from the
  content-addressed cache (on a cluster, by the shard holding it);
* **coalesced burst** -- one fresh digest submitted simultaneously by
  every client; exactly one solve must run;
* **incremental deltas** -- install/remove pairs through the
  greedy->sub-ILP ladder, one ordered stream per deployment, the
  streams concurrent with each other.

The report (written by ``repro loadgen``) records throughput,
per-class latency quantiles, the warm/cold speedup, cache statistics,
and the raw service counters; when the responses carry a shard it adds
the spread over shards and a cache-affinity audit.  Everything is
seeded: same seed, same workload, same request mix.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import io as repro_io
from ..experiments.generators import ExperimentConfig, build_instance
from ..net.routing import Routing, ShortestPathRouter
from ..policy.classbench import generate_policy_set
from .client import ServiceUnavailable
from .cluster import LocalCluster, RemoteShard
from .daemon import PlacementService, ServiceConfig
from .protocol import (
    DeltaRequest,
    MetricsRequest,
    Request,
    Response,
    ResponseStatus,
    SolveRequest,
)

__all__ = ["LoadgenConfig", "run_loadgen"]

#: Prefix of the deployment names the delta traffic targets.
_DEPLOYMENT = "loadgen"

#: ``handle(request, timeout=...) -> Response``: the one call the
#: workload makes, whatever serves it.
Handle = Callable[..., Response]


@dataclass
class LoadgenConfig:
    """Shape of the generated workload (all deterministic in ``seed``)."""

    seed: int = 0
    #: Distinct instances (cold solves).
    unique_instances: int = 4
    #: Cache-hit repeats per instance.
    repeats: int = 4
    #: Install/remove pairs per deployment.
    deltas: int = 6
    #: Concurrent client threads.
    clients: int = 4
    #: Simultaneous identical submissions in the coalescing burst.
    burst: int = 4
    #: Named deployments receiving delta traffic (``loadgen-0``, ...);
    #: with consistent-hash routing they land on different shards.
    deployments: int = 1
    # Instance shape.
    k: int = 4
    num_paths: int = 8
    rules_per_policy: int = 8
    capacity: int = 60
    backend: str = "highs"
    # Target shape, used when neither a target nor an address is given:
    # one service, or ``shards`` > 1 in-process shards behind a router.
    executor: str = "process"
    max_queue: int = 64
    dispatchers: int = 2
    max_workers: int = 4
    shards: int = 1
    vnodes: int = 64
    ring_seed: int = 0
    request_timeout: float = 300.0
    #: ``"host:port"`` of a running daemon or cluster front-end.  When
    #: set, the workload is driven over TCP -- one resilient client per
    #: thread -- instead of in process.  Requests then ride out daemon
    #: restarts via reconnect + idempotent retry, which is exactly what
    #: the recovery chaos tests exercise.
    address: Optional[str] = None
    #: Reconnect attempts per request in address mode.
    client_retries: int = 8


@dataclass
class _Sample:
    tag: str        # cold | warm | burst | delta
    status: str
    served: Optional[str]
    seconds: float
    shard: Optional[str] = None
    request_id: Optional[str] = None


@dataclass
class _Phase:
    name: str
    samples: List[_Sample] = field(default_factory=list)
    wall_seconds: float = 0.0


def run_loadgen(config: Optional[LoadgenConfig] = None, target: Any = None,
                disrupt: Optional[Callable[[], None]] = None
                ) -> Dict[str, Any]:
    """Run the full workload; returns the JSON-able report.

    Targets, in precedence order: an injected ``target`` (anything with
    ``handle(request, timeout)``; the caller owns it), a daemon at
    ``config.address``, or a fresh in-process service -- a
    :class:`~repro.service.cluster.LocalCluster` of ``config.shards``
    when that is above one.

    ``disrupt``, if given, is called once between the burst and delta
    phases -- the chaos harness passes ``lambda: cluster.kill(name)``
    to take a shard down mid-run and then asserts the report still
    counts zero failed requests.
    """
    config = config or LoadgenConfig()
    if target is not None:
        return _run(config, target.handle, disrupt)
    if config.address:
        host, _, port = config.address.rpartition(":")
        remote = RemoteShard(_DEPLOYMENT, host or "127.0.0.1", int(port),
                             timeout=config.request_timeout,
                             retries=config.client_retries)
        try:
            report = _run(config, remote.call, disrupt)
            report["client"] = remote.telemetry()
            return report
        finally:
            remote.close()
    if config.shards > 1:
        own: Any = LocalCluster(shards=config.shards, vnodes=config.vnodes,
                                seed=config.ring_seed)
    else:
        own = PlacementService(ServiceConfig(
            max_queue=config.max_queue,
            dispatchers=config.dispatchers,
            max_workers=config.max_workers,
            executor=config.executor,
        ))
    try:
        return _run(config, own.handle, disrupt)
    finally:
        own.close()


def _request(handle: Handle, request: Request, timeout: float) -> Response:
    """One request; a timeout or an unreachable daemon is an ERROR
    answer, counted as a failure, not an exception."""
    try:
        return handle(request, timeout=timeout)
    except TimeoutError:
        error = "client timeout"
    except ServiceUnavailable as exc:
        error = f"daemon unreachable: {exc}"
    return Response(status=ResponseStatus.ERROR, kind=request.kind,
                    request_id=request.request_id, error=error)


def _metrics(handle: Handle) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Counters and cache stats through the ``metrics`` verb.

    A cluster answers with fleet-wide counters (``cluster``) and one
    snapshot per shard (``shards``), whose caches are summed here; a
    single service answers with its own snapshot.
    """
    response = _request(handle, MetricsRequest(), 30.0)
    metrics = (response.result or {}).get("metrics", {})
    if "cluster" not in metrics:
        return metrics.get("counters", {}), metrics.get("cache", {})
    cache: Dict[str, float] = {}
    for snapshot in metrics.get("shards", {}).values():
        for key, value in (snapshot.get("cache") or {}).items():
            if key != "hit_rate":
                cache[key] = cache.get(key, 0.0) + value
    lookups = cache.get("hits", 0.0) + cache.get("misses", 0.0)
    cache["hit_rate"] = cache.get("hits", 0.0) / lookups if lookups else 0.0
    return metrics["cluster"].get("counters", {}), cache


def _solves_started(handle: Handle) -> float:
    return float(_metrics(handle)[0].get("solves_started_total", 0.0))


def _instance(config: LoadgenConfig, seed: int):
    return build_instance(ExperimentConfig(
        k=config.k, num_paths=config.num_paths,
        rules_per_policy=config.rules_per_policy,
        capacity=config.capacity, seed=seed,
    ))


def _run(config: LoadgenConfig, handle: Handle,
         disrupt: Optional[Callable[[], None]]) -> Dict[str, Any]:
    instances = [_instance(config, config.seed + index)
                 for index in range(config.unique_instances)]
    deployments = [f"{_DEPLOYMENT}-{i}" for i in range(config.deployments)]
    timeout = config.request_timeout
    started = time.perf_counter()
    phases: List[_Phase] = []

    # Phase 1 -- cold solves, all distinct digests, concurrent clients.
    # The first ``deployments`` instances also register the deployments
    # the delta phase will evolve (a ring spreads them over shards).
    cold_requests = [
        SolveRequest(
            instance=instance, backend=config.backend,
            deploy_as=(deployments[index] if index < len(deployments)
                       else None),
            request_id=f"cold-{index}",
        )
        for index, instance in enumerate(instances)
    ]
    phases.append(_fan_out(handle, "cold", cold_requests, config.clients,
                           timeout))

    # Phase 2 -- warm repeats: every instance again, several times.
    # deploy_as is deliberately absent so the cache can answer.
    warm_requests = [
        SolveRequest(instance=instance, backend=config.backend,
                     request_id=f"warm-{index}-{repeat}")
        for repeat in range(config.repeats)
        for index, instance in enumerate(instances)
    ]
    phases.append(_fan_out(handle, "warm", warm_requests, config.clients,
                           timeout))

    # Phase 3 -- coalescing burst: one *fresh* digest, submitted by
    # every client at once; the broker (of the one shard the digest
    # routes to) must run exactly one solve.
    fresh = _instance(config, config.seed + config.unique_instances)
    solves_before = _solves_started(handle)
    burst_requests = [
        SolveRequest(instance=fresh, backend=config.backend,
                     request_id=f"burst-{index}")
        for index in range(config.burst)
    ]
    phases.append(_fan_out(handle, "burst", burst_requests, config.burst,
                           timeout, simultaneous=True))
    burst_solves = _solves_started(handle) - solves_before

    if disrupt is not None:
        disrupt()

    # Phase 4 -- incremental deltas: one ordered stream per deployment,
    # streams concurrent with each other (on a cluster they live on
    # different shards).
    phases.append(_drive(handle, "delta",
                         _delta_streams(config, instances, deployments),
                         timeout))

    total_wall = time.perf_counter() - started
    counters, cache = _metrics(handle)
    return _report(config, phases, total_wall, burst_solves, counters,
                   cache)


# ---------------------------------------------------------------------------
# Phase runners
# ---------------------------------------------------------------------------


def _fan_out(handle: Handle, tag: str, requests: List[Request],
             clients: int, timeout: float,
             simultaneous: bool = False) -> _Phase:
    """Drive ``requests`` from ``clients`` threads sharing one work list.

    ``simultaneous`` holds every client at a barrier so all submissions
    hit the broker while the first is still solving (the coalescing
    scenario).
    """
    work = list(requests)
    return _drive(handle, tag, [work] * min(clients, len(work)), timeout,
                  simultaneous)


def _drive(handle: Handle, tag: str, queues: List[List[Request]],
           timeout: float, simultaneous: bool = False) -> _Phase:
    """One client thread per entry of ``queues``, each popping requests
    off its list in order (threads may share a list); collect samples."""
    phase = _Phase(tag)
    lock = threading.Lock()
    barrier = threading.Barrier(len(queues)) if simultaneous else None

    def client(queue: List[Request]) -> None:
        while True:
            with lock:
                if not queue:
                    return
                request = queue.pop(0)
            if barrier is not None:
                barrier.wait()
            begun = time.perf_counter()
            response = _request(handle, request, timeout)
            phase.samples.append(_Sample(
                tag, response.status, response.served,
                time.perf_counter() - begun,
                shard=response.shard, request_id=request.request_id,
            ))

    threads = [threading.Thread(target=client, args=(queue,),
                                name=f"loadgen-{tag}-{i}")
               for i, queue in enumerate(queues)]
    begun = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.wall_seconds = time.perf_counter() - begun
    return phase


def _delta_streams(config: LoadgenConfig, instances,
                   deployments: List[str]) -> List[List[DeltaRequest]]:
    """Per deployment: install a fresh policy on a free entry port, then
    remove it, round-robin over the free ports.  A stream stays on one
    client, so each install lands before its remove."""
    streams: List[List[DeltaRequest]] = []
    for slot, deployment in enumerate(deployments):
        instance = instances[slot % len(instances)]
        topo = instance.topology
        router = ShortestPathRouter(topo, seed=config.seed + slot)
        ports = [p.name for p in topo.entry_ports]
        used = set(instance.policies.ingresses)
        free = [p for p in ports if p not in used]
        stream: List[DeltaRequest] = []
        for index in range(config.deltas):
            port = free[index % len(free)]
            policy = generate_policy_set(
                [port],
                rules_per_policy=max(3, config.rules_per_policy // 2),
                seed=config.seed + 100 + slot * 1000 + index,
            )[port]
            egress = ports[(index + 1) % len(ports)]
            paths = repro_io.routing_to_dict(
                Routing([router.shortest_path(port, egress)])
            )
            stream.append(DeltaRequest(
                deployment=deployment, op="install", ingress=port,
                policy=repro_io.policy_to_dict(policy), paths=paths,
                request_id=f"delta-{deployment}-install-{index}",
            ))
            stream.append(DeltaRequest(
                deployment=deployment, op="remove", ingress=port,
                request_id=f"delta-{deployment}-remove-{index}",
            ))
        streams.append(stream)
    return streams


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def _quantiles(samples: List[float]) -> Dict[str, float]:
    if not samples:
        return {}
    ordered = sorted(samples)

    def q(fraction: float) -> float:
        rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
        return ordered[rank]

    return {
        "count": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": q(0.50),
        "p95": q(0.95),
        "p99": q(0.99),
        "min": ordered[0],
        "max": ordered[-1],
    }


def _report(config: LoadgenConfig, phases: List[_Phase],
            total_wall: float, burst_solves: float,
            counters: Dict[str, float],
            cache: Dict[str, Any]) -> Dict[str, Any]:
    samples = [sample for phase in phases for sample in phase.samples]
    failures = [s for s in samples if s.status in ResponseStatus.FAILURES]
    by_tag: Dict[str, List[_Sample]] = {}
    for sample in samples:
        by_tag.setdefault(sample.tag, []).append(sample)

    latency = {
        tag: _quantiles([s.seconds for s in tagged])
        for tag, tagged in sorted(by_tag.items())
    }
    cold_mean = latency.get("cold", {}).get("mean", 0.0)
    warm = [s for s in by_tag.get("warm", []) if s.served == "cache"]
    warm_mean = (sum(s.seconds for s in warm) / len(warm)) if warm else 0.0
    speedup = (cold_mean / warm_mean) if warm_mean > 0 else 0.0

    report: Dict[str, Any] = {
        "config": asdict(config),
        "totals": {
            "requests": len(samples),
            "failures": len(failures),
            "failure_statuses": sorted({s.status for s in failures}),
            "shed": sum(1 for s in samples
                        if s.status == ResponseStatus.OVERLOADED),
            "wall_seconds": total_wall,
            "throughput_rps": len(samples) / total_wall if total_wall else 0.0,
        },
        "latency_seconds": latency,
        "warm_vs_cold": {
            "cold_mean_seconds": cold_mean,
            "warm_cache_mean_seconds": warm_mean,
            "speedup": speedup,
            "warm_cache_hits": len(warm),
        },
        "coalescing": {
            "burst_size": config.burst,
            "solves_started": burst_solves,
            "coalesced_total": float(counters.get("coalesced_total", 0.0)),
        },
        "cache": cache,
        "counters": counters,
        "phases": {
            phase.name: {
                "requests": len(phase.samples),
                "wall_seconds": phase.wall_seconds,
            }
            for phase in phases
        },
    }
    if any(sample.shard is not None for sample in samples):
        report["cluster"] = _cluster_summary(samples)
    return report


def _cluster_summary(samples: List[_Sample]) -> Dict[str, Any]:
    """Shard spread and cache-affinity audit over the samples."""
    by_shard: Dict[str, int] = {}
    for sample in samples:
        if sample.shard is not None:
            by_shard[sample.shard] = by_shard.get(sample.shard, 0) + 1
    # Affinity: every warm repeat of instance #i carries request_id
    # ``warm-{i}-{r}``; all repeats of one i must hit one shard (unless
    # a failover moved the key mid-run, which the report surfaces).
    warm_homes: Dict[str, set] = {}
    for sample in samples:
        if sample.tag != "warm" or sample.shard is None:
            continue
        key = (sample.request_id or "").rsplit("-", 1)[0]
        warm_homes.setdefault(key, set()).add(sample.shard)
    violations = sorted(key for key, shards in warm_homes.items()
                        if len(shards) > 1)
    delta_homes: Dict[str, set] = {}
    for sample in samples:
        if sample.tag != "delta" or sample.shard is None:
            continue
        rid = sample.request_id or ""
        # ``delta-{deployment}-{op}-{index}``, deployment may contain
        # dashes: strip the prefix and the two trailing fields.
        deployment = rid[len("delta-"):].rsplit("-", 2)[0] or "?"
        delta_homes.setdefault(deployment, set()).add(sample.shard)
    return {
        "requests_by_shard": dict(sorted(by_shard.items())),
        "shards_hit": len(by_shard),
        "warm_affinity": {
            "digests": len(warm_homes),
            "violations": violations,
        },
        "delta_homes": {name: sorted(shards)
                        for name, shards in sorted(delta_homes.items())},
    }
