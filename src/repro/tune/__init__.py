"""Autotuning: from the cost model to a tuned-config catalog.

The paper's central quantitative exercise — choosing block shapes,
process grids, and overlap strategies per (application, machine) — is
closed into a loop here: :mod:`repro.tune.space` enumerates candidate
configurations, :mod:`repro.tune.search` prunes them with each app's
closed-form model (``AppSpec.predict``, over :mod:`repro.bench.predict`)
and ranks the survivors by *measured* virtual makespan (bit-for-bit
reproducible on any backend, by the cross-backend identity contract),
and :mod:`repro.tune.catalog` persists the winners where the named-app
entry points — the app registry's ``AppSpec.run`` and the job server's
admission — find them by default.
"""

from repro.tune.catalog import TunedConfig, TunedEntry
from repro.tune.search import SearchOutcome, search

__all__ = [
    "TunedConfig",
    "TunedEntry",
    "SearchOutcome",
    "search",
]
