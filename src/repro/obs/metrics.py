"""Counters, gauges and histograms with Prometheus text rendering.

A ``MetricsRegistry`` aggregates alongside the trace ring buffer: the
trace answers "what happened when", the registry answers "how much in
total" without being subject to ring-buffer truncation. Metrics are
keyed by (name, sorted label set); the ``counter``/``gauge``/
``histogram`` accessors get-or-create, so instrumentation sites never
need registration boilerplate.

Rendering follows the Prometheus text exposition format closely
enough for standard scrapers and for stable golden tests: families
are sorted by name, samples by label value, histogram buckets are
cumulative with a ``+Inf`` terminal bucket plus ``_sum``/``_count``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

LabelItems = Tuple[Tuple[str, str], ...]

#: Stable counter names for the fault-tolerant sweep machinery; tests,
#: dashboards and the chaos-smoke CI job key off these strings, so they
#: are defined once here rather than inline at each increment site.
SWEEP_RETRIES_TOTAL = "repro_sweep_retries_total"
SWEEP_TIMEOUTS_TOTAL = "repro_sweep_timeouts_total"
SWEEP_CRASHES_TOTAL = "repro_sweep_worker_crashes_total"
SWEEP_QUARANTINED_CELLS_TOTAL = "repro_sweep_quarantined_cells_total"

#: Default histogram bucket upper bounds. Chosen to resolve both GC
#: pauses in milliseconds (sub-ms nursery pauses through multi-second
#: full-heap pathologies) and free-run lengths in lines (1..128).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
)


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integral floats without the dot."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _label_str(labels: LabelItems, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(labels)
    if extra is not None:
        items.append(extra)
    if not items:
        return ""
    body = ",".join(f'{key}="{val}"' for key, val in items)
    return "{" + body + "}"


class Counter:
    """Monotonically-increasing total."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, help_text: str, labels: LabelItems) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name + _label_str(self.labels), self.value)]


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labels: LabelItems) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def samples(self) -> List[Tuple[str, float]]:
        return [(self.name + _label_str(self.labels), self.value)]


class Histogram:
    """Fixed-bucket histogram with sum and count."""

    __slots__ = ("name", "help", "labels", "bounds", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labels: LabelItems,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def percentile(self, q: float) -> float:
        """Approximate quantile from bucket boundaries (for reports).

        Returns the upper bound of the bucket containing the q-th
        observation. ``q <= 0`` is clamped to 0.0 (there is no lower
        bound to report, and the first bucket's upper bound would
        overstate the minimum). When the target observation landed in
        the overflow bucket, returns ``inf``: the histogram genuinely
        does not know how large those observations were, and reporting
        the largest finite bound would silently understate the tail.
        """
        if self.count == 0 or q <= 0.0:
            return 0.0
        target = min(q, 1.0) * self.count
        running = 0
        for i, bound in enumerate(self.bounds):
            running += self.bucket_counts[i]
            if running >= target:
                return bound
        return float("inf")

    def samples(self) -> List[Tuple[str, float]]:
        out: List[Tuple[str, float]] = []
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[i]
            out.append(
                (
                    self.name + "_bucket" + _label_str(self.labels, ("le", _fmt(bound))),
                    float(cumulative),
                )
            )
        out.append(
            (
                self.name + "_bucket" + _label_str(self.labels, ("le", "+Inf")),
                float(self.count),
            )
        )
        out.append((self.name + "_sum" + _label_str(self.labels), self.sum))
        out.append((self.name + "_count" + _label_str(self.labels), float(self.count)))
        return out


class MetricsRegistry:
    """Get-or-create registry over all three metric kinds."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], Any] = {}

    def _get(self, cls, name: str, help_text: str, labels: Dict[str, str], **kwargs):
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, help_text, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, help_text, labels, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterable[Any]:
        return iter(list(self._metrics.values()))

    def families(self) -> List[Tuple[str, List[Any]]]:
        """Metrics grouped by family name, deterministically sorted."""
        grouped: Dict[str, List[Any]] = {}
        for (name, _labels), metric in sorted(self._metrics.items()):
            grouped.setdefault(name, []).append(metric)
        return sorted(grouped.items())

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every registered metric."""
        lines: List[str] = []
        for name, metrics in self.families():
            first = metrics[0]
            if first.help:
                lines.append(f"# HELP {name} {first.help}")
            lines.append(f"# TYPE {name} {first.kind}")
            for metric in metrics:
                for sample_name, value in metric.samples():
                    lines.append(f"{sample_name} {_fmt(value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump (used by tests and the JSONL exporter)."""
        out: Dict[str, Any] = {}
        for name, metrics in self.families():
            entries = []
            for metric in metrics:
                entry: Dict[str, Any] = {
                    "labels": dict(metric.labels),
                    "kind": metric.kind,
                }
                if metric.kind == "histogram":
                    entry["sum"] = metric.sum
                    entry["count"] = metric.count
                    entry["buckets"] = {
                        _fmt(bound): count
                        for bound, count in zip(metric.bounds, metric.bucket_counts)
                    }
                    entry["buckets"]["+Inf"] = metric.bucket_counts[-1]
                else:
                    entry["value"] = metric.value
                entries.append(entry)
            out[name] = entries
        return out
