"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately minimal — no labels, no exporters, no
background threads — because its job is introspection of a simulation
running in-process: the instrumented choke points (scheduler, mailbox,
collectives, archetype phases) record *what the runtime did*, and the
``python -m repro.obs`` CLI or a test reads the numbers back.

A process-wide default registry is always available via
:func:`get_registry`; tests swap in a fresh one with
:func:`scoped_registry` to observe one run in isolation.  Every write
to an instrument takes that instrument's lock.

Instrumentation sites declare their instruments once, at import time,
with :func:`counter_handle`, :func:`gauge_handle` and
:func:`histogram_handle`: a :class:`Metric` is a plain declaration
(kind, name, help, buckets) that holds no value.  There are two ways to
record, one per kind of state:

- **Outside a run** (the tuner, the catalog, the server), a site calls
  the declaration's ``inc``/``set``/``observe``, which records into the
  current registry's instrument under that instrument's lock.
- **In a run**, no rank writes the registry while the run is live.  The
  per-message instruments (``runtime.mailbox.*``,
  ``runtime.scheduler.steps``/``blocks``, ``comm.requests.*``) are plain
  tallies on each rank's endpoint, its mailbox and the engine, and the
  per-operation ones (``comm.reductions.*``, ``comm.redistribute.*``,
  ``core.kernels.*``, ``core.mesh.*``, ``core.onedeep.*``,
  ``core.pipeline.*``, ``runtime.parallel.*``) are counts in the rank's
  ``comm.tallies`` and values in its ``comm.samples``, keyed by
  declaration.  :func:`repro.runtime.spmd.publish_run` lands them all
  in the current registry once, when the run ends (histogram samples
  are bucketed there by :meth:`Histogram.observe_many`).

This module sits below :mod:`repro.runtime` in the layering: it imports
nothing from the rest of the package, so the runtime can import it
without cycles.
"""

from __future__ import annotations

import contextlib
import threading
from bisect import bisect_left
from collections.abc import Iterator, Sequence

import numpy as np

#: default histogram buckets for virtual-time observations (seconds):
#: one decade per bucket from 1 microsecond to 100 seconds
TIME_BUCKETS: tuple[float, ...] = tuple(10.0**e for e in range(-6, 3))

#: default histogram buckets for small cardinalities (queue depths,
#: parcel counts): powers of two up to 1024
COUNT_BUCKETS: tuple[float, ...] = tuple(float(1 << e) for e in range(11))


class MetricsError(ValueError):
    """Invalid use of the metrics registry (name/type conflicts, bad values)."""


class Counter:
    """A monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Gauge:
    """A value that can go up and down (e.g. instantaneous queue depth)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self._value}


class Histogram:
    """A fixed-bucket histogram of observations.

    ``buckets`` are inclusive upper bounds in strictly increasing order;
    an implicit +inf bucket catches the overflow.  Tracks count, sum,
    min, and max alongside the per-bucket counts.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(later <= earlier for later, earlier in zip(bounds[1:], bounds)):
            raise MetricsError(
                f"histogram {name!r} buckets must be strictly increasing: {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        self._fold(((bisect_left(self.buckets, value), 1),), 1, value, value, value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations in at once.

        Buckets, count, min and max come out exactly as from one
        :meth:`observe` per value (``searchsorted(side="left")`` is
        ``bisect_left``: the first bound >= value, overflow past the
        end); the sum is the same total added in another order.
        """
        if not len(values):
            return
        samples = np.asarray(values, dtype=np.float64)
        bins = np.bincount(
            np.searchsorted(self.buckets, samples, side="left"),
            minlength=len(self._counts),
        )
        self._fold(
            enumerate(bins.tolist()),
            len(samples),
            float(samples.sum()),
            float(samples.min()),
            float(samples.max()),
        )

    def _fold(self, bins, count: int, total: float, low: float, high: float) -> None:
        """Add ``(bucket index, count)`` pairs and a batch's count, sum,
        min and max: the one update behind :meth:`observe`,
        :meth:`observe_many` and :meth:`MetricsRegistry.merge_snapshot`."""
        with self._lock:
            for i, n in bins:
                self._counts[i] += n
            self._count += count
            self._sum += total
            self._min = min(self._min, low)
            self._max = max(self._max, high)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def bucket_counts(self) -> list[int]:
        """Counts per bucket; the last entry is the +inf overflow bucket."""
        return list(self._counts)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "buckets": dict(zip([*map(str, self.buckets), "+inf"], self._counts)),
        }


_SCALARS = {"counter": Counter, "gauge": Gauge}


class Metric:
    """The declaration of one instrument: ``kind``, ``name``, ``help`` and
    ``buckets`` (histograms only), made once at import time by
    :func:`counter_handle`, :func:`gauge_handle` or :func:`histogram_handle`.

    It holds no value.  Outside a run, :meth:`inc`, :meth:`set` and
    :meth:`observe` record into the current registry's instrument, under
    that instrument's lock.  In a run, a rank keys its ``comm.tallies``
    and ``comm.samples`` by the declaration (hashed by identity) and
    :func:`repro.runtime.spmd.publish_run` lands them through
    :meth:`MetricsRegistry.instrument` when the run ends.
    """

    __slots__ = ("kind", "name", "help", "buckets")

    def __init__(self, kind: str, name: str, help: str = "", buckets: Sequence[float] = ()):
        self.kind = kind
        self.name = name
        self.help = help
        self.buckets = buckets

    def inc(self, amount: float = 1.0) -> None:
        _default_registry.instrument(self).inc(amount)

    def set(self, value: float) -> None:
        _default_registry.instrument(self).set(value)

    def observe(self, value: float) -> None:
        _default_registry.instrument(self).observe(value)


class MetricsRegistry:
    """A named collection of instruments with get-or-create access.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (raising on a kind mismatch), so
    instrumentation sites never need to pre-declare anything.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def instrument(self, metric: Metric) -> Counter | Gauge | Histogram:
        """The instrument *metric* declares, created on first use; a name
        registered as another kind raises :class:`MetricsError`."""
        inst = self._instruments.get(metric.name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(metric.name)
                if inst is None:
                    if metric.kind == "histogram":
                        inst = Histogram(metric.name, metric.buckets, metric.help)
                    else:
                        inst = _SCALARS[metric.kind](metric.name, metric.help)
                    self._instruments[metric.name] = inst
        if inst.kind != metric.kind:
            raise MetricsError(
                f"metric {metric.name!r} already registered as a {inst.kind}, "
                f"requested as a {metric.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self.instrument(Metric("counter", name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.instrument(Metric("gauge", name, help))

    def histogram(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""
    ) -> Histogram:
        return self.instrument(Metric("histogram", name, help, buckets))

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """The instrument registered under *name*, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (a fresh start for the next run)."""
        with self._lock:
            self._instruments.clear()

    def snapshot(self) -> dict[str, dict]:
        """Plain-data view of every instrument, sorted by name."""
        return {name: self._instruments[name].snapshot() for name in self.names()}

    def merge_snapshot(self, snapshot: dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is how per-process metrics from the parallel backend's
        workers — and the job server's per-job snapshots — reach the
        parent: counters add their values; gauges take the snapshot's
        value (*last-write-wins*: a gauge is an instantaneous reading,
        and the most recently merged snapshot is the most recent
        observation — summing queue depths or utilisations across
        snapshots would fabricate a reading nobody took); histograms add
        per-bucket counts and recombine sum/count/min/max.  Instruments
        missing here are created (histogram bounds recovered from the
        snapshot's bucket keys); kind or bucket mismatches raise
        :class:`MetricsError` rather than silently mixing streams.
        """
        for name, data in snapshot.items():
            kind = data.get("kind")
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                self.gauge(name).set(data["value"])
            elif kind == "histogram":
                bucket_counts = data["buckets"]
                bounds = tuple(float(b) for b in bucket_counts if b != "+inf")
                hist = self.histogram(name, buckets=bounds)
                if hist.buckets != bounds:
                    raise MetricsError(
                        f"histogram {name!r} bucket mismatch: registry has "
                        f"{hist.buckets}, snapshot has {bounds}"
                    )
                hist._fold(
                    enumerate(bucket_counts.values()),
                    data["count"],
                    data["sum"],
                    float("inf") if data["min"] is None else data["min"],
                    float("-inf") if data["max"] is None else data["max"],
                )
            else:
                raise MetricsError(f"metric {name!r} has unknown kind {kind!r}")

    def render(self) -> str:
        """Human-readable dump, one line per scalar and histogram."""
        lines = []
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                lines.append(
                    f"{name}: count={inst.count} sum={inst.sum:.6g} "
                    f"mean={inst.mean:.6g}"
                )
            else:
                value = inst.value
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"{name}: {shown}")
        return "\n".join(lines) if lines else "(no metrics recorded)"


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry all instrumentation sites record into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the process-wide registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


@contextlib.contextmanager
def scoped_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Swap in a fresh (or given) registry for the duration of the block.

    The isolation tool for tests and the CLI: everything the runtime
    records inside the block lands in the scoped registry, and the
    previous registry is restored on exit.
    """
    fresh = registry if registry is not None else MetricsRegistry()
    previous = set_registry(fresh)
    try:
        yield fresh
    finally:
        set_registry(previous)


def counter_handle(name: str, help: str = "") -> Metric:
    """Declare a counter."""
    return Metric("counter", name, help)


def gauge_handle(name: str, help: str = "") -> Metric:
    """Declare a gauge."""
    return Metric("gauge", name, help)


def histogram_handle(name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = "") -> Metric:
    """Declare a histogram."""
    return Metric("histogram", name, help, buckets)
