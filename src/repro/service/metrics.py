"""A small dependency-free metrics registry for the placement service.

Three instrument kinds, mirroring the Prometheus data model at the
scale this daemon needs:

* :class:`Counter` -- monotone event counts (requests served, cache
  hits, sheds, worker crashes);
* :class:`Gauge` -- instantaneous levels (queue depth, in-flight
  solves, cache bytes);
* :class:`Histogram` -- latency distributions over a bounded sample
  window, summarized as count/sum plus p50/p95/p99 quantiles.

Every instrument lives in a :class:`MetricsRegistry`, which renders the
whole set either as a JSON-able snapshot (embedded in service responses
and the ``repro loadgen`` report) or as Prometheus-style exposition
text (the ``metrics`` request of the wire protocol).  All instruments are
thread-safe: broker threads, the dispatcher, and connection handlers
update them concurrently.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Histograms keep at most this many recent samples; the window bounds
#: memory on a long-running daemon while keeping the quantiles honest
#: over the recent past (a sliding window, not a decaying reservoir --
#: predictable and test-friendly).
_WINDOW = 2048

_QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50), ("p95", 0.95), ("p99", 0.99),
)


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """An instantaneous level that can move both ways."""

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Latency distribution over a sliding window of recent samples."""

    def __init__(self, name: str, help_text: str = "",
                 window: int = _WINDOW) -> None:
        self.name = name
        self.help_text = help_text
        self._window = window
        self._samples: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._sum += value
            self._samples.append(value)
            if len(self._samples) > self._window:
                del self._samples[: len(self._samples) - self._window]

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (nearest-rank) of the current window."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[rank]

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def summary(self) -> Dict[str, float]:
        """count/sum/mean plus the standard quantiles (JSON-able)."""
        with self._lock:
            count, total = self._count, self._sum
            ordered = sorted(self._samples)
        record: Dict[str, float] = {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
        }
        for label, q in _QUANTILES:
            if ordered:
                rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
                record[label] = ordered[rank]
        return record


class MetricsRegistry:
    """Creates, owns, and exports every instrument of one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument factories (idempotent: same name returns same object)
    # ------------------------------------------------------------------

    def counter(self, name: str, help_text: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._check_fresh(name, self._counters)
                self._counters[name] = Counter(name, help_text)
            return self._counters[name]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._check_fresh(name, self._gauges)
                self._gauges[name] = Gauge(name, help_text)
            return self._gauges[name]

    def histogram(self, name: str, help_text: str = "") -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._check_fresh(name, self._histograms)
                self._histograms[name] = Histogram(name, help_text)
            return self._histograms[name]

    def _check_fresh(self, name: str, own: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with another kind"
                )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Everything as one JSON-able dict (embedded in responses)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one sample per line)."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        lines: List[str] = []
        for name, counter in sorted(counters.items()):
            if counter.help_text:
                lines.append(f"# HELP {name} {counter.help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {_fmt(counter.value)}")
        for name, gauge in sorted(gauges.items()):
            if gauge.help_text:
                lines.append(f"# HELP {name} {gauge.help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(gauge.value)}")
        for name, hist in sorted(histograms.items()):
            summary = hist.summary()
            if hist.help_text:
                lines.append(f"# HELP {name} {hist.help_text}")
            lines.append(f"# TYPE {name} summary")
            for label, _q in _QUANTILES:
                if label in summary:
                    quantile = {"p50": "0.5", "p95": "0.95", "p99": "0.99"}[label]
                    lines.append(
                        f'{name}{{quantile="{quantile}"}} '
                        f"{_fmt(summary[label])}"
                    )
            lines.append(f"{name}_sum {_fmt(summary['sum'])}")
            lines.append(f"{name}_count {_fmt(summary['count'])}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render integers without a trailing ``.0`` (Prometheus style)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))
