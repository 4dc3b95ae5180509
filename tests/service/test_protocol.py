"""Protocol schema: content digests, the NDJSON codec, validation."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading

import pytest

from repro import io as repro_io
from repro.digest import canonical_digest
from repro.core.incremental import IncrementalDeployer
from repro.core.placement import RulePlacer
from repro.experiments.generators import ExperimentConfig, build_instance
from repro.net.routing import Routing, ShortestPathRouter
from repro.policy.policy import Policy
from repro.policy.rule import Action, Rule
from repro.policy.ternary import TernaryMatch
from repro.service import PlacementService, ServiceConfig
from repro.service.daemon import serve_stdio
from repro.service.journal import Journal
from repro.service.protocol import (
    DeltaRequest,
    InvalidateRequest,
    MetricsRequest,
    PingRequest,
    ProtocolError,
    Response,
    ResponseStatus,
    SessionRequest,
    SolveRequest,
    VerifyRequest,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)


@pytest.fixture(scope="module")
def instance():
    return build_instance(ExperimentConfig(
        k=4, num_paths=6, rules_per_policy=5, num_ingresses=2, seed=3,
    ))


class TestCanonicalDigest:
    def test_length_framing_is_injective(self):
        assert canonical_digest(["ab", "c"]) != canonical_digest(["a", "bc"])
        assert canonical_digest(["ab"]) != canonical_digest(["a", "b"])

    def test_order_matters(self):
        assert canonical_digest(["a", "b"]) != canonical_digest(["b", "a"])

    def test_deterministic_hex(self):
        first = canonical_digest(["x", "y"])
        assert first == canonical_digest(iter(["x", "y"]))
        assert len(first) == 64
        int(first, 16)  # valid hex


class TestInstanceDigest:
    def test_stable_across_rebuilds(self, instance):
        rebuilt = build_instance(ExperimentConfig(
            k=4, num_paths=6, rules_per_policy=5, num_ingresses=2, seed=3,
        ))
        assert instance.digest() == rebuilt.digest()

    def test_roundtrip_through_json_preserves_digest(self, instance):
        rebuilt = repro_io.instance_from_dict(
            json.loads(json.dumps(repro_io.instance_to_dict(instance)))
        )
        assert rebuilt.digest() == instance.digest()

    def test_sensitive_to_capacity(self, instance):
        other = build_instance(ExperimentConfig(
            k=4, num_paths=6, rules_per_policy=5, num_ingresses=2, seed=3,
            capacity=99,
        ))
        assert other.digest() != instance.digest()

    def test_sensitive_to_policies(self, instance):
        other = build_instance(ExperimentConfig(
            k=4, num_paths=6, rules_per_policy=6, num_ingresses=2, seed=3,
        ))
        assert other.digest() != instance.digest()


class TestCacheKey:
    def test_same_request_same_key(self, instance):
        assert (SolveRequest(instance).cache_key()
                == SolveRequest(instance).cache_key())

    def test_key_covers_solver_knobs(self, instance):
        base = SolveRequest(instance).cache_key()
        assert SolveRequest(instance, objective="upstream").cache_key() != base
        assert SolveRequest(instance, merging=True).cache_key() != base
        assert SolveRequest(instance, backend="portfolio").cache_key() != base

    def test_backend_aliases_share_a_key(self, instance):
        """``scipy`` and ``scipy-highs`` solve as ``highs`` does, so
        all three share one key; ``bnb`` keeps its own."""
        keys = {name: SolveRequest(instance, backend=name).cache_key()
                for name in ("highs", "scipy", "scipy-highs", "bnb")}
        assert keys["scipy"] == keys["scipy-highs"] == keys["highs"]
        assert keys["bnb"] != keys["highs"]

    def test_key_ignores_transport_fields(self, instance):
        # request_id, deadline, deploy_as do not change the answer.
        assert (SolveRequest(instance, request_id="a", deadline=5.0,
                             deploy_as="prod").cache_key()
                == SolveRequest(instance).cache_key())


class TestCodec:
    def test_solve_roundtrip(self, instance):
        request = SolveRequest(instance, objective="upstream", merging=True,
                               backend="portfolio", deadline=1.5,
                               deploy_as="prod", request_id="r1")
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, SolveRequest)
        assert decoded.objective == "upstream"
        assert decoded.merging is True
        assert decoded.backend == "portfolio"
        assert decoded.deadline == 1.5
        assert decoded.deploy_as == "prod"
        assert decoded.request_id == "r1"
        assert decoded.cache_key() == request.cache_key()

    def test_delta_roundtrip(self, instance):
        policy = repro_io.policy_to_dict(next(iter(instance.policies)))
        request = DeltaRequest(deployment="prod", op="modify",
                               policy=policy, request_id="d1")
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, DeltaRequest)
        assert decoded.op == "modify"
        assert decoded.policy == policy

    def test_control_plane_roundtrips(self):
        for request in (PingRequest(request_id="p"), MetricsRequest(),
                        InvalidateRequest(request_id="i")):
            decoded = decode_request(encode_request(request))
            assert decoded == request
        # Older clients' invalidation scope and count are ignored.
        decoded = decode_request(json.dumps(
            {"kind": "invalidate", "scope": "topology", "count": 3}))
        assert decoded == InvalidateRequest()

    def test_verify_roundtrip(self, instance):
        request = VerifyRequest(instance, placement={"placed": []})
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, VerifyRequest)
        assert decoded.placement == {"placed": []}

    def test_response_roundtrip(self):
        response = Response(status=ResponseStatus.OK, kind="solve",
                            request_id="r1", result={"x": 1},
                            served="cache", cache_key="k", seconds=0.25)
        decoded = decode_response(encode_response(response))
        assert decoded == response
        assert decoded.ok

    def test_one_line_per_message(self, instance):
        assert "\n" not in encode_request(SolveRequest(instance))
        assert "\n" not in encode_response(Response(status="ok"))


class TestValidation:
    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request("{nope")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request("[1,2]")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"kind": "frobnicate"}))

    def test_solve_missing_instance_rejected(self):
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"kind": "solve"}))

    def test_delta_op_validation(self):
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment="d", op="teleport")
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment="d", op="install", paths=[])  # no policy
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment="d", op="reroute", paths=[])  # no ingress
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment="d", op="remove")  # no ingress

    def test_response_missing_status_rejected(self):
        with pytest.raises(ProtocolError):
            decode_response(json.dumps({"kind": "solve"}))


class TestSessionRequest:
    def test_roundtrip(self):
        from repro.service.protocol import SessionRequest

        request = SessionRequest(deployment="prod", op="attach",
                                 request_id="s1")
        decoded = decode_request(encode_request(request))
        assert isinstance(decoded, SessionRequest)
        assert decoded.deployment == "prod"
        assert decoded.op == "attach"
        assert decoded.request_id == "s1"
        assert "backend" not in json.loads(encode_request(request))

    def test_defaults(self):
        from repro.service.protocol import SessionRequest

        decoded = decode_request(json.dumps(
            {"kind": "session", "deployment": "prod"}))
        assert decoded.op == "status"
        # Older clients still send a session backend; it is ignored.
        decoded = decode_request(json.dumps(
            {"kind": "session", "deployment": "prod", "op": "attach",
             "backend": "bnb"}))
        assert decoded == SessionRequest(deployment="prod", op="attach")

    def test_validation(self):
        from repro.service.protocol import SessionRequest

        with pytest.raises(ProtocolError):
            SessionRequest(deployment="prod", op="explode")
        with pytest.raises(ProtocolError):
            decode_request(json.dumps({"kind": "session"}))


_RULE = ("instance", "policies", 0, "rules", 0)
_FLOW = ("instance", "routing", 0, "flow")
_ENTRY_PORT = ("instance", "topology", "entry_ports", 0)
_MODIFY_RULE = ("policy", "rules", 0)
_PATH = ("paths", 0)


def _every_capacity(value):
    return lambda capacities: dict.fromkeys(capacities, value)


#: A MALFORMED value that deletes its field instead of replacing it.
_DELETE = object()

#: One field of a solve, verify, modify, reroute or session request
#: set to a bad value (or to a function of its current value), or
#: deleted: a wrong JSON type, a key a decoder needs, a path through a
#: switch the topology lacks, a rule or flow of another width than the
#: policy's other rules, a non-integer priority, a capacity that is not
#: a finite number, a deadline that is not a finite non-negative
#: number, a kind or name that is not a string, an objective or backend
#: no solve knows, or a merging flag that is not a bool.  An instance, a
#: deadline, a kind, a deployment name and a solve's objective, backend
#: and merging flag are refused at decode; a delta's policy and paths
#: and a verify's placement are decoded by a worker, whose ValueError
#: the broker answers with ``bad_request``.
MALFORMED = {
    "instance-list": ("solve", ("instance",), []),
    "instance-string": ("solve", ("instance",), "instance"),
    "instance-number": ("solve", ("instance",), 7),
    "match-int": ("solve", _RULE + ("match",), 104),
    "match-null": ("solve", _RULE + ("match",), None),
    "match-char-list": ("solve", _RULE + ("match",), list),
    "match-dict": ("solve", _RULE + ("match",), {"0": 1}),
    "match-too-wide": ("solve", _RULE + ("match",), "1" * 200),
    "flow-int": ("solve", _FLOW, 5),
    "flow-too-wide": ("solve", _FLOW, "1*" * 100),
    "priority-string": ("solve", _RULE + ("priority",), "x"),
    "entry-port-name-int": ("solve", _ENTRY_PORT + ("name",), 7),
    "policy-ingress-null": ("solve", ("instance", "policies", 0, "ingress"),
                            None),
    "policy-ingress-int": ("solve", ("instance", "policies", 0, "ingress"), 3),
    "policy-ingress-float": ("solve", ("instance", "policies", 0, "ingress"),
                             1.5),
    "capacity-string": ("solve", ("instance", "capacities"),
                        _every_capacity("x")),
    "capacity-list": ("solve", ("instance", "capacities"),
                      _every_capacity([1])),
    "capacity-bool": ("solve", ("instance", "capacities"),
                      _every_capacity(True)),
    "capacity-nan": ("solve", ("instance", "capacities"),
                     _every_capacity(float("nan"))),
    "objective-unknown": ("solve", ("objective",), "nope"),
    "objective-list": ("solve", ("objective",), ["rules"]),
    "objective-int": ("solve", ("objective",), 3),
    "backend-unknown": ("solve", ("backend",), "nope"),
    "backend-int": ("solve", ("backend",), 3),
    "merging-string": ("solve", ("merging",), "yes"),
    "merging-list": ("solve", ("merging",), [1]),
    "modify-match-int": ("modify", _MODIFY_RULE + ("match",), 104),
    "modify-match-too-wide": ("modify", _MODIFY_RULE + ("match",), "1" * 200),
    "modify-priority-string": ("modify", _MODIFY_RULE + ("priority",), "x"),
    "modify-rule-no-action": ("modify", _MODIFY_RULE + ("action",), _DELETE),
    "modify-policy-no-rules": ("modify", ("policy", "rules"), _DELETE),
    "verify-placement-list": ("verify", ("placement",), []),
    "verify-no-placed": ("verify", ("placement", "placed"), _DELETE),
    "verify-placed-no-switches": (
        "verify", ("placement", "placed", 0, "switches"), _DELETE),
    "deadline-string": ("modify", ("deadline",), "soon"),
    "deadline-bool": ("modify", ("deadline",), True),
    "deadline-negative": ("solve", ("deadline",), -1),
    "deadline-nan": ("verify", ("deadline",), float("nan")),
    "deadline-infinite": ("modify", ("deadline",), float("inf")),
    "kind-list": ("modify", ("kind",), []),
    "kind-dict": ("solve", ("kind",), {}),
    "kind-number": ("verify", ("kind",), 1),
    "kind-null": ("modify", ("kind",), None),
    "deploy-as-list": ("solve", ("deploy_as",), ["x"]),
    "deployment-list": ("modify", ("deployment",), []),
    "deployment-number": ("reroute", ("deployment",), 3),
    "session-deployment-list": ("session", ("deployment",), []),
    "reroute-ingress-list": ("reroute", ("ingress",), ["h0"]),
    "path-egress-int": ("reroute", _PATH + ("egress",), 7),
    "path-ingress-null": ("reroute", _PATH + ("ingress",), None),
    "path-switch-int": ("reroute", _PATH + ("switches", 0), 5),
    "path-switch-list": ("reroute", _PATH + ("switches", 0), ["e0"]),
    "path-no-switches": ("reroute", _PATH + ("switches",), _DELETE),
    "path-switch-unknown": ("reroute", _PATH + ("switches", 0), "nowhere"),
}


def malformed_line(instance, case: str) -> str:
    """The request line of ``MALFORMED[case]``, with ``request_id``
    ``case``; deltas and sessions name deployment ``prod``."""
    kind, path, bad = MALFORMED[case]
    policy = next(iter(instance.policies))
    if kind == "solve":
        request = SolveRequest(instance, request_id=case)
    elif kind == "verify":
        switch = instance.routing.paths(policy.ingress)[0].switches[0]
        request = VerifyRequest(instance, request_id=case, placement={
            "status": "feasible", "placed": [{
                "ingress": policy.ingress,
                "priority": policy.rules[0].priority,
                "switches": [switch]}]})
    elif kind == "session":
        request = SessionRequest(deployment="prod", request_id=case)
    elif kind == "reroute":
        request = DeltaRequest(
            deployment="prod", op="reroute", request_id=case,
            ingress=policy.ingress, paths=repro_io.routing_to_dict(
                Routing(instance.routing.paths(policy.ingress))))
    else:
        request = DeltaRequest(
            deployment="prod", op="modify", request_id=case,
            policy=repro_io.policy_to_dict(policy))
    data = request.to_dict()
    *parents, leaf = path
    target = data
    for key in parents:
        target = target[key]
    if bad is _DELETE:
        del target[leaf]
    else:
        target[leaf] = bad(target[leaf]) if callable(bad) else bad
    return json.dumps(data)


class TestMalformedInputAnswersBadRequest:
    @pytest.fixture(scope="class")
    def service(self, instance):
        svc = PlacementService(ServiceConfig(executor="inline"))
        deployed = svc.handle(SolveRequest(instance, deploy_as="prod"),
                              timeout=60.0)
        assert deployed.ok
        yield svc
        svc.close()

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_answers_bad_request(self, service, instance, case):
        digest = service.broker.deployment_digest("prod")
        answer = decode_response(
            service.handle_line(malformed_line(instance, case)))
        assert answer.status == ResponseStatus.BAD_REQUEST, answer.error
        assert answer.request_id == case
        assert service.broker.deployments() == ["prod"]
        assert service.broker.deployment_digest("prod") == digest


class TestMalformedLinesKeepServing:
    """Over stdio, each malformed line is answered ``bad_request`` and
    the next line is still served.  Two deltas whose deadline was not a
    number used to kill both dispatch threads, after which no solve,
    delta or verify was ever answered again."""

    def test_bad_deadlines_and_kinds_then_a_delta_commits(self, instance):
        service = PlacementService(ServiceConfig(
            executor="inline", dispatchers=2))
        try:
            assert service.handle(SolveRequest(instance, deploy_as="prod"),
                                  timeout=60.0).ok
            delta = DeltaRequest(
                deployment="prod", op="modify",
                policy=repro_io.policy_to_dict(
                    next(iter(instance.policies)))).to_dict()
            lines = [json.dumps(dict(delta, deadline="soon",
                                     request_id=f"soon-{n}"))
                     for n in range(2)]
            lines += [json.dumps({"kind": kind, "request_id": f"kind-{n}"})
                      for n, kind in enumerate(([], {}, 1, None))]
            lines.append(json.dumps(dict(delta, request_id="good")))
            stdin = io.StringIO("".join(line + "\n" for line in lines))
            stdout = io.StringIO()
            server = threading.Thread(
                target=serve_stdio, args=(service, stdin, stdout),
                daemon=True)
            server.start()
            server.join(timeout=60.0)
            assert not server.is_alive(), "a line was never answered"
            answers = [decode_response(line)
                       for line in stdout.getvalue().splitlines()]
            assert [a.request_id for a in answers] == [
                "soon-0", "soon-1", "kind-0", "kind-1", "kind-2", "kind-3",
                "good"]
            assert all(a.status == ResponseStatus.BAD_REQUEST
                       for a in answers[:-1])
            assert answers[-1].ok, answers[-1].error
            assert answers[-1].result["state_digest"] == \
                service.broker.deployment_digest("prod")
        finally:
            service.close()

    @pytest.mark.parametrize("case", ["session-deployment-list",
                                      "entry-port-name-int"])
    def test_ping_behind_a_bad_session_line_is_answered(self, instance,
                                                        case):
        """A session line naming a list as its deployment, and a solve
        whose entry port is named by a number, each once raised out of
        ``handle_line`` and ended ``serve_stdio``."""
        service = PlacementService(ServiceConfig(executor="inline"))
        try:
            lines = [malformed_line(instance, case),
                     json.dumps({"kind": "ping", "request_id": "ping"})]
            stdin = io.StringIO("".join(line + "\n" for line in lines))
            stdout = io.StringIO()
            server = threading.Thread(
                target=serve_stdio, args=(service, stdin, stdout),
                daemon=True)
            server.start()
            server.join(timeout=60.0)
            assert not server.is_alive(), "a line was never answered"
            answers = [decode_response(line)
                       for line in stdout.getvalue().splitlines()]
            assert [(a.request_id, a.status) for a in answers] == [
                (case, ResponseStatus.BAD_REQUEST),
                ("ping", ResponseStatus.OK)]
        finally:
            service.close()

    def test_in_process_bad_deadline_answers_error(self, instance):
        """A caller that skips the wire decoder gets an ``error``
        answer; the dispatcher survives to serve the next request."""
        service = PlacementService(ServiceConfig(
            executor="inline", dispatchers=1))
        try:
            bad = VerifyRequest(instance, placement={}, deadline="soon")
            answer = service.handle(bad, timeout=30.0)
            assert answer.status == ResponseStatus.ERROR
            assert "dispatcher failure" in answer.error
            assert service.handle(SolveRequest(instance),
                                  timeout=60.0).ok
        finally:
            service.close()


class TestNamesAreStrings:
    def test_refused_deploy_as_journals_nothing_and_the_daemon_restarts(
            self, instance, tmp_path):
        """A solve whose ``deploy_as`` was a list once answered
        ``error`` yet journaled its deploy, and every later boot raised
        in recovery."""
        config = dict(executor="inline", journal_dir=str(tmp_path),
                      durability="flush")
        with PlacementService(ServiceConfig(**config)) as service:
            assert service.handle(SolveRequest(instance, deploy_as="prod"),
                                  timeout=60.0).ok
            digest = service.broker.deployment_digest("prod")
            records = service.journal.lag()["seq"]
            line = dict(SolveRequest(instance).to_dict(), deploy_as=["x"])
            answer = decode_response(service.handle_line(json.dumps(line)))
            assert answer.status == ResponseStatus.BAD_REQUEST
            assert service.journal.lag()["seq"] == records
        with PlacementService(ServiceConfig(**config)) as service:
            assert service.broker.deployments() == ["prod"]
            assert service.broker.deployment_digest("prod") == digest

    def test_in_process_requests_check_names_too(self, instance):
        with pytest.raises(ProtocolError):
            SolveRequest(instance, deploy_as=["x"])
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment=["prod"], op="remove", ingress="h0")
        with pytest.raises(ProtocolError):
            DeltaRequest(deployment="prod", op="remove", ingress=7)
        with pytest.raises(ProtocolError):
            SessionRequest(deployment=None)


class TestDefaultDeadline:
    """``repro serve --deadline`` and ``ServiceConfig.default_deadline``
    follow the wire's rule for a ``deadline``: a negative one refused
    every request and a NaN one bounded nothing."""

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"),
                                     True, "5"])
    def test_service_config_refuses(self, bad):
        with pytest.raises(ValueError, match="deadline must be"):
            ServiceConfig(default_deadline=bad)

    def test_service_config_accepts(self):
        assert ServiceConfig(default_deadline=None).default_deadline is None
        assert ServiceConfig(default_deadline=0).default_deadline == 0
        assert ServiceConfig(default_deadline=2.5).default_deadline == 2.5

    @pytest.mark.parametrize("bad", ["-1", "nan"])
    def test_serve_exits_2_before_binding(self, bad):
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "..", "src"))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--deadline", bad],
            env=env, capture_output=True, text=True, timeout=60.0)
        assert done.returncode == 2, done.stdout + done.stderr
        assert "deadline must be" in done.stderr
        assert "serving on" not in done.stdout


class TestJournaledDeadline:
    def test_old_journal_deadline_is_not_decoded_on_replay(
            self, instance, tmp_path):
        """Daemons before the deadline decoder journaled a committed
        delta's deadline as sent; a ``true`` deadline ran as one second.
        Replay ignores that spent deadline instead of refusing the
        journal, and reproduces the acknowledged digest."""
        deployer = IncrementalDeployer(RulePlacer().place(instance))
        journal = Journal(str(tmp_path), durability="flush")
        journal.recover()
        journal.commit("deploy", {
            "name": "prod", "instance": repro_io.instance_to_dict(instance),
            "placement": repro_io.placement_to_dict(
                deployer.as_placement()),
            "request_id": None})
        policy = next(iter(instance.policies))
        modify = DeltaRequest(deployment="prod", op="modify",
                              policy=repro_io.policy_to_dict(policy))
        placed = deployer.modify_policy(policy).placed
        journal.commit("delta", {
            "deployment": "prod",
            "request": dict(modify.to_dict(), deadline=True),
            "placed": [{"ingress": key[0], "priority": key[1],
                        "switches": sorted(switches)}
                       for key, switches in sorted(placed.items())]})
        journal.close()
        with PlacementService(ServiceConfig(
                executor="inline", journal_dir=str(tmp_path),
                durability="flush")) as service:
            assert service.last_recovery["deltas"] == 1
            assert service.broker.deployment_digest("prod") == \
                deployer.state_digest()


class TestDeltaFlowWidth:
    """A delta's path flows must have its policy's header width, and
    its paths may only cross switches of the topology.

    Greedy places a PERMIT-only policy without intersecting it with any
    flow, and places nothing on any switch of its paths, so nothing
    downstream notices either mistake.  Had such a delta committed,
    every later journal compaction would fail to rebuild the
    deployment's instance, and every journaled commit after it would be
    applied but answered as an error.
    """

    def test_refused_and_later_deltas_commit_across_snapshots(
            self, instance, tmp_path):
        service = PlacementService(ServiceConfig(
            executor="inline", journal_dir=str(tmp_path),
            durability="flush", snapshot_every=2))
        try:
            assert service.handle(SolveRequest(instance, deploy_as="prod"),
                                  timeout=60.0).ok
            ports = [p.name for p in instance.topology.entry_ports]
            free = next(p for p in ports
                        if p not in set(instance.policies.ingresses))
            width = next(iter(instance.policies)).width
            policy = Policy(free, [Rule(
                TernaryMatch.from_string("1" + "*" * (width - 1)),
                Action.PERMIT, 1)])
            path = ShortestPathRouter(instance.topology, seed=4) \
                .shortest_path(free, ports[0])

            def delta(op, flow_width, request_id):
                flow = TernaryMatch.from_string("*" * flow_width)
                return DeltaRequest(
                    deployment="prod", op=op, ingress=free,
                    policy=(repro_io.policy_to_dict(policy)
                            if op == "install" else None),
                    paths=repro_io.routing_to_dict(
                        Routing([path.with_flow(flow)])),
                    request_id=request_id)

            for op in ("install", "reroute"):
                wide = service.handle(delta(op, 200, f"{op}-wide"),
                                      timeout=60.0)
                assert wide.status == ResponseStatus.BAD_REQUEST, wide.error
                assert "200 bits wide" in wide.error
                fitting = service.handle(delta(op, width, op), timeout=60.0)
                assert fitting.ok, fitting.error
            stray = delta("reroute", width, "reroute-stray")
            stray.paths[0]["switches"][-1] = "nowhere"
            answer = service.handle(stray, timeout=60.0)
            assert answer.status == ResponseStatus.BAD_REQUEST, answer.error
            assert "unknown switch 'nowhere'" in answer.error
            for n in range(4):
                answer = service.handle(delta("reroute", width, f"r{n}"),
                                        timeout=60.0)
                assert answer.ok, answer.error
            snapshots = service.metrics.counter("journal_snapshots_total")
            assert snapshots.value >= 3
            digest = service.broker.deployment_digest("prod")
        finally:
            service.close()
        recovered = PlacementService(ServiceConfig(
            executor="inline", journal_dir=str(tmp_path),
            durability="flush", snapshot_every=2))
        try:
            assert recovered.broker.deployment_digest("prod") == digest
        finally:
            recovered.close()
