"""Consistent-hash sharded cluster of placement daemons.

One daemon's throughput tops out at its worker pool; the caches that
make it *fast* -- the :class:`~repro.service.cache.ResultCache` and
each session's pinned depgraph memo
(:class:`~repro.solve.session.SolverSession`) -- are all keyed by
content.  So the scale-out unit is the *key*: route
every request for the same placement instance (or the same named
deployment) to the same shard, and each shard's caches stay as hot as
the single-daemon case while aggregate throughput grows with the shard
count.

* :class:`HashRing` -- consistent hashing with virtual nodes.  Keys are
  :meth:`PlacementInstance.digest()
  <repro.core.instance.PlacementInstance.digest>` values (stateless
  solves/verifies) or deployment names (deltas, sessions, deploys).
  Adding or removing a shard remaps ~K/N keys, not all of them, so a
  resize loses one shard's warmth, not the cluster's.
* :class:`LocalShard` / :class:`RemoteShard` -- one uniform blocking
  ``call(request) -> Response`` over an in-process
  :class:`~repro.service.daemon.PlacementService` or a TCP daemon
  (per-thread pooled :class:`~repro.service.client.ServiceClient`).
* :class:`ClusterRouter` -- the brains: routes by key, probes shard
  readiness in the background, fails open to the next ring node when a
  shard dies (re-deploying named deployments there from its catalog,
  so acked deltas keep landing), fans cache clears out to every shard
  and clears a rejoining shard that missed one before routing to it
  again, and aggregates ping/health/ready/metrics across the fleet.
  ``submit(request) -> Ticket`` -- the same contract as
  :class:`~repro.service.daemon.PlacementService`, so the asyncio
  front-end serves a cluster exactly as it serves one daemon.
* :class:`LocalCluster` -- N in-process shards plus a router, the
  harness the cluster tests and benchmarks drive.

Consistency model: per-shard.  A failed-over deployment restarts from
the router's catalog (its original solve) on the successor; requests
acked by a dead shard were durably journaled *there* and revive with
it.  The cluster guarantee the chaos suite enforces is *zero failed
acked requests* -- every ack the router hands out stays true on the
shard that issued it.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Set

from .broker import Ticket
from .client import ServiceClient, ServiceUnavailable
from .daemon import PlacementService, ServiceConfig
from .metrics import MetricsRegistry
from .protocol import (
    DeltaRequest,
    HealthRequest,
    InvalidateRequest,
    MetricsRequest,
    PingRequest,
    ReadyRequest,
    Request,
    Response,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
)

__all__ = [
    "ClusterRouter",
    "HashRing",
    "LocalCluster",
    "LocalShard",
    "RemoteShard",
]


# ---------------------------------------------------------------------------
# Consistent hashing
# ---------------------------------------------------------------------------


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node owns ``vnodes`` points on a 64-bit ring; a key routes to
    the owner of the first point at or after its own hash (wrapping).
    With V virtual nodes per shard the per-shard key share concentrates
    around 1/N, and removing one shard hands exactly its own arcs to
    the survivors -- the ~K/N remap bound the property tests enforce.

    ``seed`` folds into every hash so tests can exercise distinct ring
    geometries deterministically.  All operations are thread-safe.
    """

    def __init__(self, vnodes: int = 64, seed: int = 0) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self.seed = seed
        self._points: List[int] = []       # sorted vnode hashes
        self._owners: List[str] = []       # owner of self._points[i]
        self._nodes: Dict[str, List[int]] = {}
        self._lock = threading.Lock()

    def _hash(self, key: str) -> int:
        digest = hashlib.sha256(
            f"{self.seed}:{key}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def add(self, node: str) -> None:
        with self._lock:
            if node in self._nodes:
                return
            points = sorted(self._hash(f"{node}#{i}")
                            for i in range(self.vnodes))
            self._nodes[node] = points
            for point in points:
                index = bisect.bisect_left(self._points, point)
                # sha256 collisions across distinct vnode labels are
                # not a practical concern; ties break by insert order.
                self._points.insert(index, point)
                self._owners.insert(index, node)

    def remove(self, node: str) -> None:
        with self._lock:
            if node not in self._nodes:
                return
            del self._nodes[node]
            keep = [(p, o) for p, o in zip(self._points, self._owners)
                    if o != node]
            self._points = [p for p, _ in keep]
            self._owners = [o for _, o in keep]

    def nodes(self) -> List[str]:
        with self._lock:
            return sorted(self._nodes)

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        with self._lock:
            return node in self._nodes

    def route(self, key: str) -> str:
        """The node owning ``key``; raises if the ring is empty."""
        preference = self.preference(key)
        if not preference:
            raise RuntimeError("hash ring is empty")
        return preference[0]

    def preference(self, key: str) -> List[str]:
        """Every node, in failover order for ``key``: the owner first,
        then each *distinct* next node clockwise around the ring."""
        point = self._hash(key)
        with self._lock:
            if not self._points:
                return []
            start = bisect.bisect_right(self._points, point)
            order: List[str] = []
            seen = set()
            count = len(self._owners)
            for step in range(count):
                owner = self._owners[(start + step) % count]
                if owner not in seen:
                    seen.add(owner)
                    order.append(owner)
                    if len(seen) == len(self._nodes):
                        break
            return order


# ---------------------------------------------------------------------------
# Shard adapters
# ---------------------------------------------------------------------------


class LocalShard:
    """An in-process :class:`PlacementService` behind the shard API."""

    def __init__(self, name: str, service: PlacementService) -> None:
        self.name = name
        self.service = service

    def call(self, request: Request,
             timeout: Optional[float] = None) -> Response:
        return self.service.handle(request, timeout=timeout)

    def probe(self, timeout: float = 2.0) -> bool:
        """Readiness, not liveness: a draining/closed service still
        answers pings, but must stop receiving routed work."""
        try:
            response = self.service.handle(ReadyRequest(), timeout=timeout)
        except Exception:
            return False
        return bool(response.ok and response.result
                    and response.result.get("ready"))

    def close(self) -> None:
        self.service.close()


class RemoteShard:
    """A TCP daemon behind the shard API.

    Connections are pooled per thread (:class:`ServiceClient` is
    single-connection by design), so N router workers hold N sockets to
    this shard and every routed request after the first is a
    ``pool_hits`` reuse, not a fresh connect.  ``retries`` stays small:
    the *router* owns failover, so a dead shard should fail fast here
    and get rerouted, not sat out through a long backoff.
    """

    def __init__(self, name: str, host: str, port: int,
                 timeout: float = 60.0, connect_timeout: float = 2.0,
                 retries: int = 1) -> None:
        self.name = name
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = retries
        self._tls = threading.local()
        self._clients: List[ServiceClient] = []
        self._clients_lock = threading.Lock()

    def _client(self) -> ServiceClient:
        client = getattr(self._tls, "client", None)
        if client is None:
            client = ServiceClient(
                host=self.host, port=self.port, timeout=self.timeout,
                connect_timeout=self.connect_timeout, retries=self.retries)
            self._tls.client = client
            with self._clients_lock:
                self._clients.append(client)
        return client

    def call(self, request: Request,
             timeout: Optional[float] = None) -> Response:
        return self._client().call(request, timeout=timeout)

    def probe(self, timeout: float = 2.0) -> bool:
        try:
            client = ServiceClient(
                host=self.host, port=self.port, timeout=timeout,
                connect_timeout=min(timeout, self.connect_timeout),
                retries=0)
            try:
                response = client.call(ReadyRequest(), timeout=timeout)
            finally:
                client.close()
        except Exception:
            return False
        return bool(response.ok and response.result
                    and response.result.get("ready"))

    def telemetry(self) -> Dict[str, int]:
        """Summed connection-pool counters across this shard's
        per-thread clients, and how many clients there are."""
        totals = {"reconnects": 0, "retried_requests": 0, "pool_hits": 0}
        with self._clients_lock:
            clients = list(self._clients)
        for client in clients:
            for key, value in client.telemetry().items():
                totals[key] = totals.get(key, 0) + value
        totals["clients"] = len(clients)
        return totals

    def close(self) -> None:
        with self._clients_lock:
            clients, self._clients = self._clients, []
        for client in clients:
            client.close()


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


class ClusterRouter:
    """Routes requests to shards by content key; fails open; keeps the
    fleet's caches coherent.

    The routing key is chosen for cache affinity:

    * plain solve / verify -> ``instance.digest()`` -- repeat solves of
      one instance hit one shard's result cache;
    * deploy / delta / session -> the deployment name -- a deployment's
      deployer state and session worker live on exactly one shard.

    Stickiness: a deployment's *home* shard is wherever it was last
    successfully served.  When the home dies, the router walks the
    ring's preference order to the next live shard, re-deploys from its
    catalog (the original solve request, recorded at deploy time), and
    replays the delta there -- callers see one slower request, not a
    failure.  The home moves; it does *not* snap back when the dead
    shard rejoins, because the successor now owns deltas the original
    never saw.
    """

    def __init__(
        self,
        shards: Sequence[Any],
        vnodes: int = 64,
        seed: int = 0,
        probe_interval: float = 0.5,
        workers: int = 8,
        probe: bool = True,
    ) -> None:
        self.metrics = MetricsRegistry()
        self.ring = HashRing(vnodes=vnodes, seed=seed)
        self._shards: Dict[str, Any] = {}
        self._live: Dict[str, bool] = {}
        self._home: Dict[str, str] = {}       # deployment -> shard name
        self._catalog: Dict[str, Dict[str, Any]] = {}  # deployment -> solve dict
        #: Shards that missed a cache clear while down; each is cleared
        #: before it is routable again.
        self._missed: Set[str] = set()
        self._clears = 0  # clears fanned out so far
        self._lock = threading.Lock()
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-router")
        self._c_routed = self.metrics.counter(
            "router_requests_total", "requests routed to a shard")
        self._c_failovers = self.metrics.counter(
            "router_failovers_total",
            "requests rerouted off a dead shard to a ring successor")
        self._c_redeploys = self.metrics.counter(
            "router_redeploys_total",
            "deployments re-created from the catalog after failover")
        self._c_broadcasts = self.metrics.counter(
            "router_broadcasts_total", "cache clears fanned out to shards")
        self._g_live = self.metrics.gauge(
            "router_live_shards", "shards currently routable")
        for shard in shards:
            self._register(shard)
        self._g_live.set(sum(self._live.values()))
        self._probe_stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        if probe:
            self._prober = threading.Thread(
                target=self._probe_loop, args=(probe_interval,),
                name="repro-router-probe", daemon=True)
            self._prober.start()

    def _register(self, shard: Any) -> None:
        if shard.name in self._shards:
            raise ValueError(f"duplicate shard name {shard.name!r}")
        self._shards[shard.name] = shard
        # Fail-open: presume routable until a call or probe says no.
        self._live[shard.name] = True
        self.ring.add(shard.name)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_shard(self, shard: Any) -> None:
        """Join: the new shard takes ~K/N keys from the ring; existing
        deployments keep their sticky homes (no forced migration)."""
        with self._lock:
            self._register(shard)
            self._g_live.set(sum(self._live.values()))

    def remove_shard(self, name: str) -> None:
        """Leave: keys remap to ring successors; deployments homed here
        re-deploy from the catalog on their next delta."""
        with self._lock:
            if name not in self._shards:
                return
            self.ring.remove(name)
            del self._shards[name]
            del self._live[name]
            self._missed.discard(name)
            for deployment, home in list(self._home.items()):
                if home == name:
                    del self._home[deployment]
            self._g_live.set(sum(self._live.values()))

    def shards(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    def live_shards(self) -> List[str]:
        with self._lock:
            return sorted(n for n, ok in self._live.items() if ok)

    # ------------------------------------------------------------------
    # Submit (the PlacementService contract)
    # ------------------------------------------------------------------

    def submit(self, request: Request) -> Ticket:
        """Admit one request; resolves on a router worker thread."""
        ticket = Ticket()
        if self._closed:
            ticket.resolve(Response(
                status=ResponseStatus.ERROR,
                kind=getattr(request, "kind", ""),
                request_id=getattr(request, "request_id", None),
                error="cluster router is shutting down"))
            return ticket
        try:
            self._pool.submit(self._dispatch, request, ticket)
        except RuntimeError:  # pool shut down under us
            ticket.resolve(Response(
                status=ResponseStatus.ERROR,
                kind=getattr(request, "kind", ""),
                request_id=getattr(request, "request_id", None),
                error="cluster router is shutting down"))
        return ticket

    def handle(self, request: Request,
               timeout: Optional[float] = None) -> Response:
        return self.submit(request).result(timeout)

    def _dispatch(self, request: Request, ticket: Ticket) -> None:
        try:
            response = self._handle(request)
        except Exception as exc:  # never leave a ticket hanging
            response = Response(
                status=ResponseStatus.ERROR,
                kind=getattr(request, "kind", ""),
                request_id=getattr(request, "request_id", None),
                error=f"router error: {type(exc).__name__}: {exc}")
        ticket.resolve(response)

    def _handle(self, request: Request) -> Response:
        if isinstance(request, PingRequest):
            return self._aggregate_ping(request)
        if isinstance(request, HealthRequest):
            return self._aggregate_health(request)
        if isinstance(request, ReadyRequest):
            return self._aggregate_ready(request)
        if isinstance(request, MetricsRequest):
            return self._aggregate_metrics(request)
        if isinstance(request, InvalidateRequest):
            return self._broadcast_invalidate(request)
        if isinstance(request, (DeltaRequest, SessionRequest)):
            return self._route_stateful(request, request.deployment)
        if isinstance(request, SolveRequest) and request.deploy_as:
            return self._route_stateful(request, request.deploy_as)
        # Plain solves and verifies: stateless, keyed by content.
        return self._route_stateless(request)

    # ------------------------------------------------------------------
    # Data-plane routing
    # ------------------------------------------------------------------

    @staticmethod
    def _going_away(response: Response) -> bool:
        """Shard told us it is dying -- reroute, don't fail the caller.
        Ordinary OVERLOADED (queue full) is deliberate shedding and is
        returned as-is; only drain/shutdown refusals trigger failover.
        """
        error = (response.error or "").lower()
        return (response.status in (ResponseStatus.ERROR,
                                    ResponseStatus.OVERLOADED)
                and ("shutting down" in error or "draining" in error))

    def _candidates(self, key: str,
                    sticky: Optional[str] = None) -> List[str]:
        order = self.ring.preference(key)
        with self._lock:
            home = self._home.get(sticky) if sticky else None
        if home is not None and home in self._shards:
            order = [home] + [n for n in order if n != home]
        return order

    def _mark_down(self, name: str) -> None:
        with self._lock:
            if self._live.get(name):
                self._live[name] = False
                self._g_live.set(sum(self._live.values()))

    def _call_shard(self, name: str,
                    request: Request) -> Optional[Response]:
        """One attempt against one shard; ``None`` means it is gone."""
        shard = self._shards.get(name)
        if shard is None:
            return None
        try:
            response = shard.call(request)
        except (ServiceUnavailable, ConnectionError, OSError,
                TimeoutError):
            self._mark_down(name)
            return None
        if self._going_away(response):
            self._mark_down(name)
            return None
        return response

    def _route_stateless(self, request: Request) -> Response:
        key = request.instance.digest()
        return self._route(request, key, sticky=None)

    def _route_stateful(self, request: Request, deployment: str) -> Response:
        return self._route(request, deployment, sticky=deployment)

    def _route(self, request: Request, key: str,
               sticky: Optional[str]) -> Response:
        self._c_routed.inc()
        candidates = self._candidates(key, sticky=sticky)
        with self._lock:
            live = [n for n in candidates if self._live.get(n, False)]
            down = [n for n in candidates if not self._live.get(n, False)]
        # Live shards in preference order first; then -- fail open --
        # the down-marked ones, in case the prober is simply behind a
        # recovery (a genuinely dead shard fails fast and is skipped).
        for name in live + down:
            if name in down and not self._rejoin(name):
                # Unreachable, or it missed a cache clear it could not
                # take now -- either way not safe to route to.
                continue
            response = self._call_shard(name, request)
            if response is None:
                continue
            response = self._after_route(name, request, response)
            if candidates and name != candidates[0]:
                self._c_failovers.inc()
            response.shard = name
            return response
        return Response(
            status=ResponseStatus.ERROR,
            kind=getattr(request, "kind", ""),
            request_id=getattr(request, "request_id", None),
            error=f"no live shard for key {key!r} "
                  f"({len(self._shards)} registered)")

    def _after_route(self, name: str, request: Request,
                     response: Response) -> Response:
        """Post-route bookkeeping: catalog deploys, move homes, and
        resurrect missing deployments on failover targets."""
        if isinstance(request, SolveRequest) and request.deploy_as:
            if response.ok:
                with self._lock:
                    self._catalog[request.deploy_as] = request.to_dict()
                    self._home[request.deploy_as] = name
            return response
        if isinstance(request, (DeltaRequest, SessionRequest)):
            deployment = request.deployment
            if (response.status == ResponseStatus.BAD_REQUEST
                    and "unknown deployment" in (response.error or "")):
                revived = self._redeploy(name, deployment)
                if revived:
                    retried = self._call_shard(name, request)
                    if retried is not None:
                        response = retried
            if response.status not in ResponseStatus.FAILURES:
                with self._lock:
                    if deployment in self._catalog:
                        self._home[deployment] = name
        return response

    def _redeploy(self, name: str, deployment: str) -> bool:
        """Re-create a cataloged deployment on a failover target."""
        with self._lock:
            spec = self._catalog.get(deployment)
        if spec is None:
            return False
        solve = SolveRequest.from_dict(spec)
        solve.request_id = f"redeploy-{uuid.uuid4().hex}"
        response = self._call_shard(name, solve)
        if response is None or not response.ok:
            return False
        self._c_redeploys.inc()
        return True

    # ------------------------------------------------------------------
    # Cache clears: fan-out, and clearing a shard that missed one
    # ------------------------------------------------------------------

    def _broadcast_invalidate(self, request: InvalidateRequest) -> Response:
        """Clear every live shard's cache.  A shard that is down or
        fails its clear is flagged as having missed one, and
        :meth:`_rejoin` clears it before it is routed to again."""
        self._c_broadcasts.inc()
        with self._lock:
            self._clears += 1
            targets = sorted(n for n, ok in self._live.items() if ok)
            skipped = sorted(n for n, ok in self._live.items() if not ok)
            self._missed.update(skipped)
        dropped: Dict[str, Any] = {}
        for name in targets:
            response = self._call_shard(name, InvalidateRequest(
                request_id=f"bcast-{uuid.uuid4().hex}"))
            if response is not None and response.ok:
                dropped[name] = (response.result or {}).get("dropped")
                continue
            self._mark_down(name)
            skipped.append(name)
            with self._lock:
                self._missed.add(name)
        return Response(
            status=ResponseStatus.OK, kind=request.kind,
            request_id=request.request_id,
            result={"shards": dropped, "skipped_down": skipped})

    def _rejoin(self, name: str) -> bool:
        """Mark a down shard live again, clearing its cache first if it
        missed a clear.  False (still down) when that clear fails, or
        when another clear was fanned out meanwhile -- the next probe
        or route tries again."""
        with self._lock:
            missed = name in self._missed
            clears = self._clears
        if missed:
            response = self._call_shard(name, InvalidateRequest(
                request_id=f"rejoin-{uuid.uuid4().hex}"))
            if response is None or not response.ok:
                return False
        with self._lock:
            if missed and self._clears == clears:
                self._missed.discard(name)
            if name in self._missed or name not in self._live:
                return False
            if not self._live[name]:
                self._live[name] = True
                self._g_live.set(sum(self._live.values()))
        return True

    def _probe_loop(self, interval: float) -> None:
        while not self._probe_stop.wait(interval):
            with self._lock:
                snapshot = list(self._shards.items())
            for name, shard in snapshot:
                try:
                    alive = shard.probe()
                except Exception:  # pragma: no cover - defensive
                    alive = False
                with self._lock:
                    was_live = self._live.get(name)
                if was_live is None:  # removed while probing
                    continue
                if alive and not was_live:
                    self._rejoin(name)
                elif not alive and was_live:
                    self._mark_down(name)

    # ------------------------------------------------------------------
    # Aggregated control plane
    # ------------------------------------------------------------------

    def _per_live_shard(self, make_request) -> Dict[str, Response]:
        with self._lock:
            targets = sorted(n for n, ok in self._live.items() if ok)
        results: Dict[str, Response] = {}
        for name in targets:
            response = self._call_shard(name, make_request())
            if response is not None:
                results[name] = response
        return results

    def _aggregate_ping(self, request: PingRequest) -> Response:
        answers = self._per_live_shard(PingRequest)
        shards = {
            name: (resp.result or {})
            for name, resp in answers.items() if resp.ok
        }
        deployments = sorted({
            d for info in shards.values()
            for d in info.get("deployments", [])
        })
        return Response(
            status=ResponseStatus.OK, kind=request.kind,
            request_id=request.request_id,
            result={"pong": True, "cluster": True,
                    "deployments": deployments,
                    "shards": shards,
                    "live": sorted(shards),
                    "down": self._down_list(exclude=set(shards))})

    def _aggregate_ready(self, request: ReadyRequest) -> Response:
        answers = self._per_live_shard(ReadyRequest)
        per_shard = {
            name: bool(resp.ok and resp.result
                       and resp.result.get("ready"))
            for name, resp in answers.items()
        }
        ready = any(per_shard.values())
        return Response(
            status=ResponseStatus.OK, kind=request.kind,
            request_id=request.request_id,
            result={"ready": ready, "shards": per_shard,
                    "down": self._down_list(exclude=set(per_shard))})

    def _aggregate_health(self, request: HealthRequest) -> Response:
        answers = self._per_live_shard(
            lambda: HealthRequest(deep=request.deep))
        per_shard = {name: (resp.result or {})
                     for name, resp in answers.items() if resp.ok}
        down = self._down_list(exclude=set(per_shard))
        healthy = (bool(per_shard)
                   and all(info.get("healthy") for info in per_shard.values())
                   and not down)
        return Response(
            status=ResponseStatus.OK, kind=request.kind,
            request_id=request.request_id,
            result={"healthy": healthy, "cluster": True,
                    "shards": per_shard, "down": down,
                    "live_shards": len(per_shard)})

    def _aggregate_metrics(self, request: MetricsRequest) -> Response:
        answers = self._per_live_shard(MetricsRequest)
        per_shard: Dict[str, Any] = {}
        totals: Dict[str, Dict[str, float]] = {"counters": {}, "gauges": {}}
        for name, resp in answers.items():
            if not resp.ok or not resp.result:
                continue
            snapshot = resp.result.get("metrics", {})
            per_shard[name] = snapshot
            for family in ("counters", "gauges"):
                for metric, value in snapshot.get(family, {}).items():
                    totals[family][metric] = (
                        totals[family].get(metric, 0.0) + value)
        return Response(
            status=ResponseStatus.OK, kind=request.kind,
            request_id=request.request_id,
            result={"metrics": {
                "cluster": totals,
                "router": self.metrics.snapshot(),
                "shards": per_shard,
            }, "down": self._down_list(exclude=set(per_shard))})

    def _down_list(self, exclude: set) -> List[str]:
        with self._lock:
            return sorted(n for n in self._shards
                          if n not in exclude and not self._live.get(n))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop routing.  Shards are owned by the caller (the daemons
        keep serving direct clients)."""
        if self._closed:
            return
        self._closed = True
        self._probe_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# In-process cluster harness
# ---------------------------------------------------------------------------


class LocalCluster:
    """N in-process shards + a router: the cluster-in-one-process
    harness the tests, benchmarks, and ``repro serve --shards N`` use.

    On one box the shards share the GIL for Python-side work, but each
    shard's *solver* children are separate processes, and -- the point
    of the design -- each shard's result cache and sessions serve
    their own key range exclusively.
    """

    def __init__(
        self,
        shards: int = 3,
        config_factory=None,
        vnodes: int = 64,
        seed: int = 0,
        probe_interval: float = 0.25,
        router_workers: int = 8,
        probe: bool = True,
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self._config_factory = config_factory or (
            lambda name: ServiceConfig(
                executor="inline", dispatchers=2, max_workers=2))
        self.shards: Dict[str, LocalShard] = {}
        for index in range(shards):
            name = f"shard-{index}"
            service = PlacementService(self._config_factory(name))
            self.shards[name] = LocalShard(name, service)
        self.router = ClusterRouter(
            list(self.shards.values()), vnodes=vnodes, seed=seed,
            probe_interval=probe_interval, workers=router_workers,
            probe=probe)

    @property
    def metrics(self) -> MetricsRegistry:
        return self.router.metrics

    def submit(self, request: Request) -> Ticket:
        return self.router.submit(request)

    def handle(self, request: Request,
               timeout: Optional[float] = None) -> Response:
        return self.router.handle(request, timeout=timeout)

    def kill(self, name: str) -> None:
        """Simulate a shard crash: hard-close its service.  The router
        is *not* told -- it must discover the death via failed calls or
        probes, which is exactly what the chaos suite exercises."""
        self.shards[name].service.close(drain=False)

    def revive(self, name: str,
               config: Optional[ServiceConfig] = None) -> None:
        """Bring a killed shard back with a fresh service (same name,
        same ring position).  The router's prober notices, clears it if
        it missed a cache clear, and only then routes to it again."""
        shard = self.shards[name]
        shard.service = PlacementService(
            config or self._config_factory(name))

    def close(self) -> None:
        self.router.close()
        for shard in self.shards.values():
            try:
                shard.service.close()
            except Exception:  # pragma: no cover - already killed
                pass

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
