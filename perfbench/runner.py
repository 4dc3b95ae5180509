"""One measured run: set-up, the closed loop, the gates, the metrics.

Untraced (end to end), ``SETUP_REPEATS`` times over:

1. set up a fresh daemon with a fresh journal directory (``setup_s`` is
   the median of these set-ups, so work moved into set-up shows);
2. run the closed loop on it for its share of ``--seconds`` (and of the
   workload's ``min_ops``), one connection, timing each op on the
   client; op numbers continue across daemons.  A workload without
   ``spread_ops`` runs the whole window on the last daemon instead;
3. run the post-run gates, read /proc, stop the daemon and check that
   it exited 0 and left nothing behind.

The daemon counters come from the last daemon.

Traced: set up once, measure for half the time, stop the daemon, then
replay the same ops in this process with spans for the other half.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.protocol import MetricsRequest

import stats
from daemon import Daemon, DaemonError
from env import environment
from replay import Replay
from workloads import WORKLOADS, OpOutcome, SetupError

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Client-side timeout of one request: a request slower than this is a
#: failed op, not a slow one.
OP_TIMEOUT = 120.0
#: Ops a traced run's daemon phase makes at least.
TRACED_MIN_OPS = 3
#: The loop stops issuing ops at this multiple of its window even short
#: of ``min_ops``, so a pathologically slow program still exits.
HARD_CAP = 4.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("setup_s", "s"),
    ("daemon_peak_rss_mb", "MB"),
    ("installed_rules", "count"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("protocol.request_encode_ms", "ms"),
    ("protocol.request_decode_ms", "ms"),
    ("protocol.response_encode_ms", "ms"),
    ("protocol.response_decode_ms", "ms"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("digest.cache_key_ms", "ms"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.put_ms", "ms"),
    ("broker.queue_wait_ms", "ms"),
    ("workers.fork_ms", "ms"),
    ("workers.session_rtt_ms", "ms"),
    ("depgraph.build_ms", "ms"),
    ("slicing.build_ms", "ms"),
    ("ilp.encode_ms", "ms"),
    ("ilp.variables", "count"),
    ("milp.solve_ms", "ms"),
    ("placement.extract_ms", "ms"),
    ("io.placement_to_dict_ms", "ms"),
    ("io.placement_from_dict_ms", "ms"),
    ("incremental.preview_reroute_ms", "ms"),
    ("incremental.preview_modify_ms", "ms"),
    ("incremental.preview_install_ms", "ms"),
    ("incremental.commit_ms", "ms"),
    ("incremental.state_digest_ms", "ms"),
    ("incremental.greedy_share", "ratio"),
    ("session.warm_hits", "count"),
    ("session.fallbacks", "count"),
    ("journal.commit_ms", "ms"),
    ("journal.record_bytes", "bytes"),
    ("traffic.observe_ms", "ms"),
    ("traffic.select_ms", "ms"),
    ("traffic.deltas_per_round", "count"),
    ("traffic.trim_ratio", "ratio"),
    ("traffic.cache_hit_rate", "ratio"),
    ("tags.synthesize_ms", "ms"),
    ("verify.placement_ms", "ms"),
    ("verify.to_solve_ratio", "ratio"),
    ("daemon.cpu_ms_per_op", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


@dataclass
class Loop:
    """What the closed loop measured."""

    latencies: List[float] = field(default_factory=list)
    busy: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)


@dataclass
class Result:
    workload: str
    trace: bool
    attempted: int = 0
    failed: int = 0
    aborted: bool = False
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.aborted and self.failed == 0 and self.attempted > 0

    def lines(self) -> List[str]:
        mode = "traced replay" if self.trace else "end to end"
        out = [f"workload {self.workload} ({mode})"] + self.notes
        for name, (value, unit) in self.metrics.items():
            out.append(f"  {name:<32} {value:>16.6f} {unit}")
        rate = self.failed / self.attempted if self.attempted else 1.0
        out.append(f"  attempted {self.attempted}, failed {self.failed}, "
                   f"error_rate {rate:.4f}")
        return out

    def summary(self) -> Dict[str, object]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


def _closed_loop(workload, client, window: float, min_ops: int,
                 loop: Loop) -> None:
    """Run ops on ``client`` for ``window`` seconds and at least
    ``min_ops`` ops, continuing ``loop``'s op numbering."""
    begun = time.perf_counter()
    first = loop.attempted
    while (loop.attempted - first < min_ops
           or time.perf_counter() - begun < window):
        index = loop.attempted
        if time.perf_counter() - begun > HARD_CAP * window:
            loop.failed += 1
            loop.errors.append(f"stopped after {index - first} ops at "
                               f"{HARD_CAP:g}x the window")
            break
        prepared = workload.prepare(index)
        try:
            outcome = workload.op(client, index, prepared)
        except (ServiceUnavailable, OSError, RuntimeError) as exc:
            outcome = OpOutcome(None, [f"op {index}: {type(exc).__name__}: "
                                       f"{exc}"])
        loop.attempted += 1
        if outcome.seconds is not None:
            loop.busy += outcome.seconds
        if outcome.errors:
            loop.failed += 1
            loop.errors.extend(outcome.errors)
        else:
            loop.latencies.append(outcome.seconds)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 root: str, rundir: str) -> Result:
    result = Result(name, trace)
    result.notes.append("env " + json.dumps(environment(root, rundir),
                                            sort_keys=True))
    workload = WORKLOADS[name](seed)
    checked = 0
    failures: List[str] = []
    daemon: Optional[Daemon] = None
    client: Optional[ServiceClient] = None
    setups: List[float] = []
    loop = Loop()
    probe: Dict[str, float] = {}
    peak_rss = 0.0

    def stop() -> None:
        nonlocal checked, daemon, client
        if client is not None:
            client.close()
            client = None
        if daemon is not None:
            problems = daemon.stop()
            daemon = None
            checked += 1
            if problems:
                failures.append("daemon hygiene: " + "; ".join(problems))

    repeats = 1 if trace else SETUP_REPEATS
    # Where the workload allows, each set-up is followed by its share of
    # the window and the ops, so the measured ops spread over the whole
    # run rather than its end: machine speed drifts over tens of seconds.
    chunks = repeats if workload.spread_ops else 1
    window = (seconds / 2 if trace else seconds) / chunks
    # The traced run needs no tail, only the median it attributes.
    min_ops = -(-(TRACED_MIN_OPS if trace else workload.min_ops) // chunks)
    cpu = 0.0
    try:
        for repeat in range(repeats):
            stop()
            daemon = Daemon(root, rundir)
            begun = time.perf_counter()
            daemon.start()
            daemon.wait_ready()
            client = ServiceClient(port=daemon.port, timeout=OP_TIMEOUT,
                                   retries=0)
            workload.setup(client)
            setups.append(time.perf_counter() - begun)
            if repeat < repeats - chunks:
                continue
            used = daemon.cpu_seconds()
            _closed_loop(workload, client, window, min_ops, loop)
            cpu += daemon.cpu_seconds() - used
            checked += workload.post_gates
            failures.extend(workload.finish(client))
            peak_rss = max(peak_rss, daemon.peak_rss_mb())
        counters = client.call(MetricsRequest(), timeout=30.0).result["metrics"]
        queue_wait = counters["histograms"].get("queue_wait_seconds", {})
        probe = {
            "cache.hits": float(counters["cache"]["hits"]),
            "cache.misses": float(counters["cache"]["misses"]),
            "broker.queue_wait_ms": queue_wait.get("p50", 0.0) * 1e3,
            "daemon.cpu_ms_per_op": cpu * 1e3 / max(1, loop.attempted),
        }
        probe.update(workload.daemon_layers())
    except (DaemonError, SetupError, ServiceUnavailable, OSError) as exc:
        result.aborted = True
        failures.append(f"run aborted: {type(exc).__name__}: {exc}")
    finally:
        stop()

    result.attempted = loop.attempted + checked
    result.failed = loop.failed + len(failures)
    for message in (loop.errors + failures)[:10]:
        result.notes.append(f"FAILED {message}")
    if result.aborted:
        return result
    if trace:
        _traced(result, workload, loop, probe, seconds / 2, rundir)
    else:
        _end_to_end(result, workload, loop, setups, peak_rss)
    return result


def _end_to_end(result: Result, workload, loop: Loop, setups: List[float],
                peak_rss: float) -> None:
    latencies = [s * 1e3 for s in loop.latencies]
    try:
        tail, pct, samples = stats.tail(latencies)
    except ValueError as exc:
        result.failed += 1
        result.notes.append(f"FAILED no tail: {exc}")
        return
    values = {
        "latency_p50_ms": stats.median(latencies),
        "latency_tail_ms": tail,
        "throughput_ops_s": len(loop.latencies) / loop.busy,
        "setup_s": stats.median(setups),
        "daemon_peak_rss_mb": peak_rss,
        "installed_rules": workload.installed_rules(),
    }
    result.notes.append(
        f"latency_tail_ms is p{pct:g} of {samples} ops (at least "
        f"{stats.TAIL_BEYOND} beyond); setup_s is the median of "
        + ", ".join(f"{s:.3f}" for s in setups) + " s")
    for name, unit in END_TO_END:
        result.metrics[name] = (float(values[name]), unit)


def _traced(result: Result, workload, loop: Loop, probe: Dict[str, float],
            budget: float, rundir: str) -> None:
    tracer = stats.Tracer()
    rp = Replay(tracer, rundir)
    try:
        extra, mismatches = workload.replay(rp, loop.attempted, budget)
    finally:
        rp.close()
    result.attempted += 1
    if mismatches:
        result.failed += 1
        result.notes.extend(f"FAILED {m}" for m in mismatches[:3])
    per_op = stats.self_times(tracer.spans)
    typical = stats.layer_p50s(per_op, zero_fill=True)
    values: Dict[str, float] = {
        f"{name}_ms": value
        for name, value in stats.layer_p50s(per_op, zero_fill=False).items()}
    values.update({name: stats.median(sizes)
                   for name, sizes in rp.sizes.items() if sizes})
    values.update(probe)
    values.update(extra)
    end_to_end = stats.median(loop.latencies) * 1e3
    values["unattributed_ms"] = end_to_end - sum(typical.values())
    values["trace.overhead_pct"] = _overhead_pct(tracer)
    for name, unit in PER_LAYER:
        result.metrics[name] = (float(values.get(name, 0.0)), unit)
    unknown = sorted(set(values) - {name for name, _ in PER_LAYER})
    if unknown:
        result.failed += 1
        result.notes.append(f"FAILED spans without a metric: {unknown}")
    result.notes.append(
        f"replayed {len(per_op)} of {loop.attempted} ops; end-to-end p50 "
        f"{end_to_end:.3f} ms of which the traced layers' typical self "
        f"times sum to {sum(typical.values()):.3f} ms")
    if rp.components and max(rp.components) > 1:
        result.notes.append(f"some solves split into {max(rp.components)} "
                            f"components (the daemon forks those)")
    if values["unattributed_ms"] > 0.1 * end_to_end:
        result.notes.append(f"unattributed_ms exceeds a tenth of the p50; "
                            f"suspected: {workload.suspected_gap}")


def _overhead_pct(tracer: stats.Tracer) -> float:
    """What recording the spans added to a replayed op: spans per op
    times the measured cost of one span, over the median op."""
    roots = [span for span in tracer.spans if span.parent is None]
    if not roots:
        return 0.0
    per_op = (len(tracer.spans) - len(roots)) / len(roots)
    probe = stats.Tracer()
    count = 5000
    begun = time.perf_counter()
    with probe.span("op"):
        for _ in range(count):
            with probe.span("layer"):
                pass
    cost = (time.perf_counter() - begun) / count
    return 100.0 * per_op * cost / stats.median([s.duration for s in roots])
