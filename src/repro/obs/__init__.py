"""repro.obs — the observability subsystem.

Three layers, all built on artifacts the runtime already produces:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges, and fixed-bucket histograms, each declared once as a
  :class:`Metric`.  The runtime, the communication library, and the
  archetype skeletons are instrumented at their choke points (scheduler
  steps/blocks, mailbox enqueue/match, collective entry/exit, archetype
  phase boundaries) as per-rank tallies that land when a run ends, so
  every run populates the registry without any application changes.
- :mod:`repro.obs.critical` — happens-before analysis of a
  :class:`~repro.trace.tracer.Tracer`'s event logs: message send/recv
  pairing, the critical path (the longest virtual-time chain, whose
  length equals the run's makespan), per-rank busy/wait/idle breakdowns,
  and the rank x rank communication matrix.
- :mod:`repro.obs.chrome` — Chrome trace-event JSON export (one track
  per rank, compute/send/recv/idle slices, flow arrows for messages),
  viewable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``,
  plus a schema validator the CI smoke gate runs.

``python -m repro.obs`` drives all of it from the shell; see
``docs/observability.md``.
"""

from repro.obs.chrome import chrome_trace, export_chrome_trace, validate_chrome_trace
from repro.obs.critical import (
    CriticalPathReport,
    MessagePair,
    PathSegment,
    RankActivity,
    comm_matrix,
    critical_path,
    pair_messages,
    rank_activity,
    render_comm_matrix,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    counter_handle,
    gauge_handle,
    get_registry,
    histogram_handle,
    scoped_registry,
    set_registry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "counter_handle",
    "gauge_handle",
    "histogram_handle",
    "get_registry",
    "set_registry",
    "scoped_registry",
    "MessagePair",
    "PathSegment",
    "CriticalPathReport",
    "RankActivity",
    "pair_messages",
    "critical_path",
    "rank_activity",
    "comm_matrix",
    "render_comm_matrix",
    "chrome_trace",
    "export_chrome_trace",
    "validate_chrome_trace",
]
