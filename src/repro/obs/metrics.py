"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is deliberately minimal — no labels, no exporters, no
background threads — because its job is introspection of a simulation
running in-process: the instrumented choke points (scheduler, mailbox,
collectives, archetype phases) record *what the runtime did*, and the
``python -m repro.obs`` CLI or a test reads the numbers back.

A process-wide default registry is always available via
:func:`get_registry`; instrumentation sites call
``get_registry().counter("...").inc()`` so that tests can swap in a
fresh registry with :func:`scoped_registry` and observe one run in
isolation.  All instruments are thread-safe (ranks run on threads).

Sites that record often use the bind-once *handle* API instead — :func:`counter_handle`,
:func:`gauge_handle`, :func:`histogram_handle` — which resolves the
instrument once and then records with a single registry-identity check
per event (no lock, no dict lookup, no name formatting).  Handles stay
correct across :func:`scoped_registry`/:func:`set_registry` swaps: a
swap is detected by identity comparison and the handle re-binds against
the new registry on its next use.

Every instrument a run records touches no registry while the run is
live: the per-message ones (``runtime.mailbox.*``,
``runtime.scheduler.steps``/``blocks``, ``comm.requests.*``) are plain
tallies on each rank's endpoint, its mailbox and the engine, and the
per-operation ones (``comm.reductions.*``, ``comm.redistribute.*``,
``core.kernels.*``, ``core.mesh.*``, ``core.onedeep.*``,
``core.pipeline.*``) are counts in the rank's ``comm.tallies`` and
values in its ``comm.samples``, keyed by handle.
:func:`repro.runtime.spmd.publish_run` lands them all in the current
registry once, when the run ends (histogram samples are bucketed there
by :meth:`Histogram.observe_many`).  A handle's own ``inc``/``observe``
is for sites outside a run: the tuner, the catalog, the server.

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

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

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
        with self._lock:
            i = 0
            while i < len(self.buckets) and value > self.buckets[i]:
                i += 1
            self._counts[i] += 1
            self._count += 1
            self._sum += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold a batch of observations in at once.

        Buckets, count, min and max come out exactly as from one
        :meth:`observe` per value (``searchsorted(side="left")`` is the
        first bound >= value, overflow past the end); the sum is the
        same total added in another order.
        """
        if not len(values):
            return
        samples = np.asarray(values, dtype=np.float64)
        bins = np.bincount(
            np.searchsorted(self.buckets, samples, side="left"),
            minlength=len(self._counts),
        )
        with self._lock:
            for i, count in enumerate(bins.tolist()):
                self._counts[i] += count
            self._count += len(samples)
            self._sum += float(samples.sum())
            self._min = min(self._min, float(samples.min()))
            self._max = max(self._max, float(samples.max()))

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


class MetricsRegistry:
    """A named collection of instruments with get-or-create access.

    ``counter``/``gauge``/``histogram`` return the existing instrument
    when the name is already registered (raising on a kind mismatch), so
    instrumentation sites never need to pre-declare anything.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
            elif inst.kind != kind:
                raise MetricsError(
                    f"metric {name!r} already registered as a {inst.kind}, "
                    f"requested as a {kind}"
                )
            return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, lambda: Counter(name, help), "counter")

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name, help), "gauge")

    def histogram(
        self, name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""
    ) -> Histogram:
        return self._get_or_create(
            name, lambda: Histogram(name, buckets, help), "histogram"
        )

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
                with hist._lock:
                    for i, count in enumerate(bucket_counts.values()):
                        hist._counts[i] += count
                    hist._count += data["count"]
                    hist._sum += data["sum"]
                    if data["min"] is not None:
                        hist._min = min(hist._min, data["min"])
                    if data["max"] is not None:
                        hist._max = max(hist._max, data["max"])
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


class _Handle:
    """Bind-once accessor for one instrument of the process-wide registry.

    Created at import time by instrumentation sites; resolves its
    instrument on first use and re-resolves automatically whenever the
    default registry is swapped (:func:`scoped_registry` /
    :func:`set_registry`), detected by a plain identity check; each
    subclass's ``_create`` makes its kind of instrument.
    """

    __slots__ = ("name", "help", "_registry", "_instrument")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._registry: MetricsRegistry | None = None
        self._instrument: Counter | Gauge | Histogram | None = None


class CounterHandle(_Handle):
    """Cached handle to a :class:`Counter` (see :func:`counter_handle`).

    ``inc`` mutates the counter without taking its lock, so two
    threads incrementing at once (rank threads of the threaded engine,
    under free-running GIL preemption) could lose an update.  No rank
    does: every instrument of a run is a per-rank tally, written only by
    its own rank (``comm.tallies[handle] += n``) and summed once when the
    run ends (:func:`repro.runtime.spmd.publish_run`), so run totals are
    exact on every engine.  ``inc`` serves the sites outside a run.
    """

    def _create(self, registry: MetricsRegistry) -> Counter:
        return registry.counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        registry = _default_registry
        if self._registry is not registry:
            self._instrument = self._create(registry)
            self._registry = registry
        self._instrument._value += amount


class GaugeHandle(_Handle):
    """Cached handle to a :class:`Gauge` (see :func:`gauge_handle`).

    Lock-free, like :class:`CounterHandle`.
    """

    def _create(self, registry: MetricsRegistry) -> Gauge:
        return registry.gauge(self.name, self.help)

    def set(self, value: float) -> None:
        registry = _default_registry
        if self._registry is not registry:
            self._instrument = self._create(registry)
            self._registry = registry
        self._instrument._value = float(value)


class HistogramHandle(_Handle):
    """Cached handle to a :class:`Histogram` (see :func:`histogram_handle`).

    Lock-free, like :class:`CounterHandle`, and for the same sites: in
    a run, a rank appends to ``comm.samples[handle]`` instead.  The
    bucket search uses
    ``bisect_left``, which lands on the same bucket as
    :meth:`Histogram.observe`'s linear scan (first bound >= value,
    overflow past the end).
    """

    __slots__ = ("buckets",)

    def __init__(self, name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""):
        super().__init__(name, help)
        self.buckets = buckets

    def _create(self, registry: MetricsRegistry) -> Histogram:
        return registry.histogram(self.name, self.buckets, self.help)

    def observe(self, value: float) -> None:
        registry = _default_registry
        if self._registry is not registry:
            self._instrument = self._create(registry)
            self._registry = registry
        inst = self._instrument
        value = float(value)
        inst._counts[bisect_left(inst.buckets, value)] += 1
        inst._count += 1
        inst._sum += value
        if value < inst._min:
            inst._min = value
        if value > inst._max:
            inst._max = value


def counter_handle(name: str, help: str = "") -> CounterHandle:
    """A bind-once counter accessor for hot instrumentation sites."""
    return CounterHandle(name, help)


def gauge_handle(name: str, help: str = "") -> GaugeHandle:
    """A bind-once gauge accessor for hot instrumentation sites."""
    return GaugeHandle(name, help)


def histogram_handle(
    name: str, buckets: Sequence[float] = TIME_BUCKETS, help: str = ""
) -> HistogramHandle:
    """A bind-once histogram accessor for hot instrumentation sites."""
    return HistogramHandle(name, buckets, help)
