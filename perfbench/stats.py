"""Order statistics and the span recorder of the benchmark.

Pure Python with no dependency on the program under test, so the tests
in ``test_perfbench.py`` pin its arithmetic down.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Percentiles the tail metric may report, highest first.  A run
#: reports the highest one with at least ``TAIL_BEYOND`` samples above
#: it, so a run with few samples reports a lower percentile instead of
#: extrapolating.
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0, 66.0, 50.0)
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank of ``pct`` among ``count`` samples."""
    return max(1, int(-(-count * pct // 100)))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), pct) - 1])


def beyond(values: Sequence[float], pct: float) -> int:
    """How many samples rank above the nearest-rank ``pct``."""
    return len(values) - _rank(len(values), pct)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest ladder percentile
    with at least :data:`TAIL_BEYOND` samples beyond it.

    Raises ``ValueError`` when even the median has fewer than that many
    samples above it: such a run has no tail worth reporting.
    """
    for pct in TAIL_LADDER:
        if beyond(values, pct) >= TAIL_BEYOND:
            return percentile(values, pct), pct, len(values)
    raise ValueError(
        f"{len(values)} samples: no percentile has {TAIL_BEYOND} beyond it")


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Span:
    __slots__ = ("sid", "parent", "name", "start", "end")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 start: float) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span.

    Spans nest strictly (one thread), so a span's children are the spans
    whose ``parent`` is its id.  A span without a parent delimits one
    operation.  ``enabled=False`` records nothing.
    """

    def __init__(self, enabled: bool = True,
                 clock=time.perf_counter) -> None:
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(record)
        self._stack.append(record.sid)
        try:
            yield
        finally:
            record.end = self.clock()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        """Record, as a child of the open span, a duration measured as a
        difference of two timed calls (a fork's cost, a pipe's round
        trip) rather than around one block."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, 0.0)
        record.end = max(0.0, seconds)
        self.spans.append(record)


def self_times(spans: Sequence[Span]) -> List[Dict[str, float]]:
    """Per operation, each layer's summed self time in milliseconds.

    A span's self time is its duration minus the durations of its direct
    children.  Each parentless span is one operation and is not itself a
    layer; it yields one dict ``{layer: ms}`` summing every span of that
    name inside it.
    """
    child_time: Dict[int, float] = {}
    root_of: Dict[int, int] = {}
    per_op: Dict[int, Dict[str, float]] = {}
    for span in spans:
        if span.parent is None:
            per_op[span.sid] = {}
            continue
        child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        root_of[span.sid] = root_of.get(span.parent, span.parent)
    for span in spans:
        if span.parent is None:
            continue
        own = (span.duration - child_time.get(span.sid, 0.0)) * 1e3
        layers = per_op[root_of[span.sid]]
        layers[span.name] = layers.get(span.name, 0.0) + own
    return list(per_op.values())


def layer_p50s(per_op: Sequence[Dict[str, float]],
               zero_fill: bool) -> Dict[str, float]:
    """Median self time of each layer across operations.

    ``zero_fill=False`` takes the median over the operations the layer
    appears in (what one operation that uses the layer spends there);
    ``zero_fill=True`` counts an absent layer as 0 (what the layer adds
    to a typical operation: these medians sum towards the end-to-end
    median).
    """
    names = sorted({name for op in per_op for name in op})
    result: Dict[str, float] = {}
    for name in names:
        if zero_fill:
            values = [op.get(name, 0.0) for op in per_op]
        else:
            values = [op[name] for op in per_op if name in op]
        result[name] = median(values)
    return result
