"""Typed request/response schema of the placement service.

One request or response is one JSON object on one line (newline-
delimited JSON) -- the transport works identically over a TCP socket,
a pipe, or stdio, and a request file is greppable and hand-editable
like every other JSON artifact in this repo.

Requests
--------

* :class:`SolveRequest`   -- full placement of a
  :class:`~repro.core.instance.PlacementInstance`; the expensive,
  cacheable operation.  ``deploy_as`` registers the solved placement as
  a named live deployment for later deltas.
* :class:`DeltaRequest`   -- incremental change against a named
  deployment (install/remove/reroute/modify), served by the
  greedy->sub-ILP ladder of
  :class:`~repro.core.incremental.IncrementalDeployer`.
* :class:`VerifyRequest`  -- exact verification of a placement.
* :class:`PingRequest`, :class:`MetricsRequest`,
  :class:`InvalidateRequest` -- liveness, observability, and explicit
  cache-epoch control.

Content addressing
------------------

``SolveRequest.cache_key()`` extends
:meth:`PlacementInstance.digest() <repro.core.instance.PlacementInstance.digest>`
-- the canonical content digest shared with the depgraph memo and chaos
fingerprints -- with every solver knob that changes the answer
(objective, merging, backend).  Equal key, equal result: the broker
coalesces identical in-flight requests and the result cache serves
repeats without solving.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from .. import io as repro_io
from ..core.instance import PlacementInstance
from ..core.objectives import NAMED_OBJECTIVES
from ..digest import canonical_digest
from ..solve.portfolio import SOLVE_BACKENDS

__all__ = [
    "DeltaRequest",
    "HealthRequest",
    "InvalidateRequest",
    "MetricsRequest",
    "PingRequest",
    "ReadyRequest",
    "ProtocolError",
    "Request",
    "Response",
    "ResponseStatus",
    "SessionRequest",
    "SolveRequest",
    "VerifyRequest",
    "checked_deadline",
    "decode_request",
    "decode_request_or_error",
    "decode_response",
    "encode_request",
    "encode_response",
]

PROTOCOL_VERSION = 1

#: Delta operations the service accepts.
DELTA_OPS = ("install", "remove", "reroute", "modify")

#: Session operations (see :class:`SessionRequest`).
SESSION_OPS = ("attach", "status")


class ProtocolError(ValueError):
    """A malformed request/response line (bad JSON, unknown kind,
    missing field).  The server answers these with ``BAD_REQUEST``
    instead of dying."""


class ResponseStatus:
    """Response status vocabulary (plain strings on the wire)."""

    OK = "ok"
    INFEASIBLE = "infeasible"
    OVERLOADED = "overloaded"
    DEADLINE_EXCEEDED = "deadline_exceeded"
    WORKER_CRASHED = "worker_crashed"
    BAD_REQUEST = "bad_request"
    ERROR = "error"

    #: Statuses that count as a *failed* request in the load generator
    #: and CI gates.  OVERLOADED is deliberate shedding and INFEASIBLE
    #: is a correct answer; neither is a failure.
    FAILURES = (WORKER_CRASHED, BAD_REQUEST, ERROR)


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


@dataclass
class SolveRequest:
    """Full placement of one instance."""

    instance: PlacementInstance
    objective: str = "rules"
    merging: bool = False
    backend: str = "highs"
    #: Wall-clock budget in seconds, measured from admission; expires
    #: queued requests (DEADLINE_EXCEEDED) and bounds the solver.
    deadline: Optional[float] = None
    #: Register the solved placement as a live deployment under this
    #: name so later :class:`DeltaRequest`s can evolve it.
    deploy_as: Optional[str] = None
    request_id: Optional[str] = None

    kind = "solve"
    priority = 1  # full solves yield to deltas

    def __post_init__(self) -> None:
        if self.deploy_as is not None:
            _check_name(self.deploy_as, "deploy_as")
        _check_choice(self.objective, NAMED_OBJECTIVES, "objective")
        _check_choice(self.backend, SOLVE_BACKENDS, "backend")
        if not isinstance(self.merging, bool):
            raise ProtocolError(
                f"merging must be true or false, got {self.merging!r}")

    def cache_key(self) -> str:
        """Content digest covering the instance and every knob that
        changes the placement."""
        return canonical_digest((
            "solve",
            self.instance.digest(),
            f"objective={self.objective}",
            f"merging={int(self.merging)}",
            f"backend={self.backend}",
        ))

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {
            "instance": repro_io.instance_to_dict(self.instance),
            "objective": self.objective,
            "merging": self.merging,
            "backend": self.backend,
            "deadline": self.deadline,
            "deploy_as": self.deploy_as,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SolveRequest":
        return cls(
            instance=_instance_from(data),
            objective=data.get("objective", "rules"),
            merging=data.get("merging", False),
            backend=data.get("backend", "highs"),
            deadline=checked_deadline(data.get("deadline")),
            deploy_as=data.get("deploy_as"),
            request_id=data.get("request_id"),
        )


@dataclass
class DeltaRequest:
    """Incremental change against a named live deployment."""

    deployment: str
    op: str
    #: Target ingress for ``remove``/``reroute``; implied by the policy
    #: for ``install``/``modify``.
    ingress: Optional[str] = None
    #: The policy being installed or modified (io JSON schema).
    policy: Optional[Dict[str, Any]] = None
    #: Paths for ``install``/``reroute`` (io JSON schema).
    paths: Optional[List[Dict[str, Any]]] = None
    deadline: Optional[float] = None
    request_id: Optional[str] = None

    kind = "delta"
    priority = 0  # deltas preempt queued full solves

    def __post_init__(self) -> None:
        _check_name(self.deployment, "deployment")
        if self.ingress is not None:
            _check_name(self.ingress, "ingress")
        if self.op not in DELTA_OPS:
            raise ProtocolError(
                f"unknown delta op {self.op!r}; known: {DELTA_OPS}"
            )
        if self.op in ("install", "modify") and self.policy is None:
            raise ProtocolError(f"delta op {self.op!r} needs a policy")
        if self.op in ("install", "reroute") and self.paths is None:
            raise ProtocolError(f"delta op {self.op!r} needs paths")
        if self.op in ("remove", "reroute") and self.ingress is None:
            raise ProtocolError(f"delta op {self.op!r} needs an ingress")

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {
            "deployment": self.deployment,
            "op": self.op,
            "ingress": self.ingress,
            "policy": self.policy,
            "paths": self.paths,
            "deadline": self.deadline,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeltaRequest":
        try:
            deployment = data["deployment"]
            op = data["op"]
        except KeyError as exc:
            raise ProtocolError(f"delta request missing {exc}") from None
        return cls(
            deployment=deployment,
            op=op,
            ingress=data.get("ingress"),
            policy=data.get("policy"),
            paths=data.get("paths"),
            deadline=checked_deadline(data.get("deadline")),
            request_id=data.get("request_id"),
        )


@dataclass
class VerifyRequest:
    """Exact verification of a placement against its instance."""

    instance: PlacementInstance
    placement: Dict[str, Any]
    deadline: Optional[float] = None
    request_id: Optional[str] = None

    kind = "verify"
    priority = 0  # cheap and latency-sensitive, like deltas

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {
            "instance": repro_io.instance_to_dict(self.instance),
            "placement": self.placement,
            "deadline": self.deadline,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyRequest":
        try:
            placement = data["placement"]
        except KeyError:
            raise ProtocolError("verify request missing placement") from None
        return cls(
            instance=_instance_from(data),
            placement=placement,
            deadline=checked_deadline(data.get("deadline")),
            request_id=data.get("request_id"),
        )


@dataclass
class SessionRequest:
    """Inspect or re-arm one named deployment's session worker.

    Every deployment gets its own
    :class:`~repro.service.workers.SessionWorker` once its deploy is
    acked: a long-lived child holding a snapshot of the deployer and
    its :class:`~repro.solve.session.SolverSession` (the pinned
    dependency-graph memo), which previews every delta.  No client
    needs a session request to be served.  ``status`` reports the
    worker's telemetry without touching it.  ``attach`` clears the
    deployment's quarantine (journaled) and ensures it a live worker.
    Answered inline by the broker, never queued.
    """

    deployment: str
    op: str = "status"
    request_id: Optional[str] = None

    kind = "session"
    priority = 0

    def __post_init__(self) -> None:
        _check_name(self.deployment, "deployment")
        if self.op not in SESSION_OPS:
            raise ProtocolError(
                f"unknown session op {self.op!r}; known: {SESSION_OPS}"
            )

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {
            "deployment": self.deployment,
            "op": self.op,
        })

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionRequest":
        try:
            deployment = data["deployment"]
        except KeyError:
            raise ProtocolError("session request missing deployment") from None
        return cls(
            deployment=deployment,
            op=data.get("op", "status"),
            request_id=data.get("request_id"),
        )


@dataclass
class PingRequest:
    """Liveness probe; answered inline, never queued."""

    request_id: Optional[str] = None

    kind = "ping"
    priority = 0

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {})

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PingRequest":
        return cls(request_id=data.get("request_id"))


@dataclass
class HealthRequest:
    """Deep health probe: journal lag, worker liveness, queue depth.

    ``deep=True`` additionally round-trips every attached session worker
    (a real liveness check of the child processes, not just
    bookkeeping).  Answered inline, never queued -- health checks must
    work *because* the daemon is busy.
    """

    deep: bool = False
    request_id: Optional[str] = None

    kind = "health"
    priority = 0

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {"deep": self.deep})

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HealthRequest":
        return cls(deep=bool(data.get("deep", False)),
                   request_id=data.get("request_id"))


@dataclass
class ReadyRequest:
    """Readiness probe: is the daemon accepting work right now?

    Distinct from :class:`HealthRequest` the way k8s separates the two:
    a draining or recovering daemon is *alive* but not *ready*.
    """

    request_id: Optional[str] = None

    kind = "ready"
    priority = 0

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {})

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReadyRequest":
        return cls(request_id=data.get("request_id"))


@dataclass
class MetricsRequest:
    """Fetch the metrics registry (snapshot + Prometheus text)."""

    request_id: Optional[str] = None

    kind = "metrics"
    priority = 0

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {})

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRequest":
        return cls(request_id=data.get("request_id"))


@dataclass
class InvalidateRequest:
    """Bump a cache epoch: ``scope`` is ``topology``, ``policy`` or
    ``all``.  Entries cached under older epochs stop being served.

    ``count`` bumps the epoch that many times in one request -- the
    cluster router uses it to catch a rejoining shard up on every
    broadcast it missed while down, atomically and without regressing
    any epoch the shard advanced on its own.
    """

    scope: str = "all"
    count: int = 1
    request_id: Optional[str] = None

    kind = "invalidate"
    priority = 0

    def __post_init__(self) -> None:
        if self.scope not in ("topology", "policy", "all"):
            raise ProtocolError(f"unknown invalidation scope {self.scope!r}")
        if not isinstance(self.count, int) or self.count < 1:
            raise ProtocolError(
                f"invalidation count must be a positive int, "
                f"got {self.count!r}")

    def to_dict(self) -> Dict[str, Any]:
        return _with_common(self, {"scope": self.scope,
                                   "count": self.count})

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "InvalidateRequest":
        return cls(scope=data.get("scope", "all"),
                   count=data.get("count", 1),
                   request_id=data.get("request_id"))


Request = Union[
    SolveRequest, DeltaRequest, VerifyRequest,
    PingRequest, HealthRequest, ReadyRequest,
    MetricsRequest, InvalidateRequest, SessionRequest,
]

_REQUEST_TYPES = {
    cls.kind: cls
    for cls in (SolveRequest, DeltaRequest, VerifyRequest,
                PingRequest, HealthRequest, ReadyRequest,
                MetricsRequest, InvalidateRequest,
                SessionRequest)
}


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


@dataclass
class Response:
    """The uniform answer envelope.

    ``status`` draws from :class:`ResponseStatus`; ``result`` is the
    kind-specific payload (a placement dict for solves, an incremental
    result for deltas, a verification report for verifies); ``served``
    records how the answer was produced (``solved``, ``cache``,
    ``coalesced``, ``inline``) for clients and tests to assert on.
    """

    status: str
    kind: str = ""
    request_id: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    served: Optional[str] = None
    cache_key: Optional[str] = None
    #: Wall seconds from admission to completion (queueing included).
    seconds: Optional[float] = None
    #: Name of the cluster shard that produced the answer (stamped by
    #: the router; absent on single-daemon responses).
    shard: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == ResponseStatus.OK

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"v": PROTOCOL_VERSION, "status": self.status}
        for key in ("kind", "request_id", "result", "error", "served",
                    "cache_key", "seconds", "shard"):
            value = getattr(self, key)
            if value is not None and value != "":
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Response":
        try:
            status = data["status"]
        except KeyError:
            raise ProtocolError("response missing status") from None
        return cls(
            status=status,
            kind=data.get("kind", ""),
            request_id=data.get("request_id"),
            result=data.get("result"),
            error=data.get("error"),
            served=data.get("served"),
            cache_key=data.get("cache_key"),
            seconds=data.get("seconds"),
            shard=data.get("shard"),
        )


# ---------------------------------------------------------------------------
# Wire codec (one JSON object per line)
# ---------------------------------------------------------------------------


def encode_request(request: Request) -> str:
    """One NDJSON line (no trailing newline)."""
    return json.dumps(request.to_dict(), separators=(",", ":"))


def decode_request(line: str) -> Request:
    """Parse one NDJSON request line; raises :class:`ProtocolError`."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("request must be a JSON object")
    kind = data.get("kind")
    # A list or dict kind is unhashable: look up strings only.
    request_cls = _REQUEST_TYPES.get(kind) if isinstance(kind, str) else None
    if request_cls is None:
        raise ProtocolError(
            f"unknown request kind {kind!r}; known: {sorted(_REQUEST_TYPES)}"
        )
    try:
        return request_cls.from_dict(data)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed {kind} request: {exc}") from None


def decode_request_or_error(
        line: str) -> Tuple[Optional[Request], Optional[str]]:
    """Decode one request line, or answer it BAD_REQUEST.

    Returns ``(request, None)``, or ``(None, answer)`` with the
    BAD_REQUEST response already encoded; the answer echoes the line's
    ``request_id`` when it has one.  Both NDJSON transports (TCP and
    stdio) parse through here.
    """
    try:
        return decode_request(line), None
    except ProtocolError as exc:
        request_id = None
        try:
            request_id = json.loads(line).get("request_id")
        except (json.JSONDecodeError, AttributeError):
            pass
        return None, encode_response(Response(
            status=ResponseStatus.BAD_REQUEST,
            request_id=request_id, error=str(exc)))


def encode_response(response: Response) -> str:
    return json.dumps(response.to_dict(), separators=(",", ":"))


def decode_response(line: str) -> Response:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError("response must be a JSON object")
    return Response.from_dict(data)


# ---------------------------------------------------------------------------
# Internals
# ---------------------------------------------------------------------------


def _with_common(request: Request, data: Dict[str, Any]) -> Dict[str, Any]:
    data["v"] = PROTOCOL_VERSION
    data["kind"] = request.kind
    if request.request_id is not None:
        data["request_id"] = request.request_id
    return data


def checked_deadline(deadline: Any) -> Optional[float]:
    """``deadline`` if it is None or a finite, non-negative number of
    seconds (a bool is not a number here), else a
    :class:`ProtocolError`.  The rule for a request's ``deadline`` and
    for the daemon's default one."""
    if deadline is None:
        return None
    if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
        try:
            if math.isfinite(deadline) and deadline >= 0:
                return deadline
        except OverflowError:  # an int too large for a float
            pass
    raise ProtocolError(
        f"deadline must be a finite, non-negative number of seconds, "
        f"got {deadline!r}")


def _check_name(name: Any, field: str) -> None:
    """Deployment and ingress names are strings: they key dicts and are
    journaled as sent, so a list here once broke every later boot."""
    if not isinstance(name, str):
        raise ProtocolError(f"{field} must be a string, got {name!r}")


def _check_choice(value: Any, known, field: str) -> None:
    """A solve's ``objective`` and ``backend`` are names from a fixed
    table; an unknown one would otherwise fail in the worker as
    ``error`` instead of answering ``bad_request``."""
    if not (isinstance(value, str) and value in known):
        raise ProtocolError(
            f"unknown {field} {value!r}; known: {list(known)}")


def _instance_from(data: Dict[str, Any]) -> PlacementInstance:
    try:
        spec = data["instance"]
    except KeyError:
        raise ProtocolError("request missing instance") from None
    if isinstance(spec, PlacementInstance):
        return spec
    try:
        return repro_io.instance_from_dict(spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed instance: {exc}") from None
