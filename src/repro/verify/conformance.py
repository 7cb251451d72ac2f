"""Conformance programs: every registered app, small, on a modelled machine.

Every archetype in the library promises the same execution contract —
deterministic results, schedule-independent virtual clocks, consistent
traces.  The conformance suite (``tests/test_archetype_contract.py``),
the cross-backend digest matrix (:mod:`repro.verify.crossbackend`) and
the chaos sweep (``python -m repro.verify``) check it for every app in
the shared registry (:mod:`repro.apps.registry`).  None of them keeps a
list of its own: a new app buys into every contract check by registering
one :class:`~repro.apps.registry.AppSpec`.

All of them run an app the same way, through :func:`run_app`: at its
``verify_overrides`` sizes, on IBM SP (so virtual clocks are non-trivial
and clock-canonicality checks bite), with ``mode`` an
:class:`~repro.core.archetype.ExecutionMode` string or ``None`` to defer
to ``REPRO_BACKEND``.
"""

from __future__ import annotations

from repro.apps import registry
from repro.runtime.spmd import RunResult

def run_app(app: str, mode: str | None = None, trace: bool = False) -> RunResult:
    """One verification run of *app*: its ``verify_overrides`` on IBM SP."""
    spec = registry.get(app)
    return spec.run(spec.verify_overrides, machine="ibm-sp", mode=mode, trace=trace)


def archetypes() -> tuple[str, ...]:
    """The archetype families covered by the registry."""
    return tuple(dict.fromkeys(spec.archetype for spec in registry.specs()))
