"""The backend registry: one mapping from names to scheduling backends.

Every entry point that lets a caller pick a backend — :func:`repro.runtime.
spmd.spmd_run`, :meth:`Archetype.run <repro.core.archetype.Archetype.run>`,
``python -m repro.bench``, ``python -m repro.verify``, and the job
server's wire protocol (:mod:`repro.serve`) — resolves the name here
instead of wiring constructors ad hoc.  The registry also owns
the ``REPRO_BACKEND`` environment default: passing ``backend=None`` (or
``mode=None``) to a runner means "whatever ``REPRO_BACKEND`` says, else
deterministic", which is how a whole bench sweep or test run is switched
onto another backend without touching call sites.

Backends come in two execution styles:

- *in-process* backends (deterministic, fuzzed, threads) construct a
  :class:`~repro.runtime.scheduler.Backend` and drive rank bodies as
  threads of the calling process;
- the *process-parallel* backend (``parallel``) runs one OS process per
  rank and is orchestrated by :func:`repro.runtime.parallel.run_parallel`
  — it cannot execute arbitrary closures built around shared state, so
  :func:`spmd_run` dispatches on :attr:`BackendSpec.in_process`.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ReproError
from repro.runtime.scheduler import DeterministicBackend, Seeded, ThreadedBackend

#: environment variable naming the default backend
BACKEND_ENV = "REPRO_BACKEND"


@dataclass(frozen=True)
class BackendSpec:
    """One registered backend."""

    name: str
    description: str
    #: True when the backend runs rank bodies as threads of this process
    #: (constructed via :attr:`factory`); False for the process-parallel
    #: backend, which :func:`spmd_run` hands off to ``run_parallel``.
    in_process: bool
    #: ``factory(nprocs, **options) -> Backend`` for in-process backends
    factory: Callable | None = None
    #: the :class:`~repro.core.archetype.ExecutionMode` string that drives
    #: this backend through ``Archetype.run(mode=...)``.  The fuzzed
    #: backend shares ``"sequential"`` with the deterministic one — it is
    #: the same run-to-block engine, selected by wrapping the run in
    #: :func:`repro.verify.fuzzed_schedule` (or via ``REPRO_BACKEND``);
    #: the job server's executor relies on exactly that combination.
    mode: str = "sequential"


def _make_deterministic(nprocs: int, **options) -> "object":
    return DeterministicBackend(nprocs)


def _make_fuzzed(nprocs: int, **options) -> "object":
    return DeterministicBackend(nprocs, Seeded(options.get("seed", 0)), options.get("faults"))


def _make_threads(nprocs: int, **options) -> "object":
    return ThreadedBackend(
        nprocs, deadlock_timeout=options.get("deadlock_timeout", 30.0)
    )


_REGISTRY: dict[str, BackendSpec] = {}


def register(spec: BackendSpec) -> None:
    """Add *spec* to the registry (idempotent for an identical re-register)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ReproError(f"backend {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec


register(
    BackendSpec(
        name="deterministic",
        description="run-to-block, one rank at a time, virtual-time order "
        "(reproducible; the reference for digests and clocks)",
        in_process=True,
        factory=_make_deterministic,
    )
)
register(
    BackendSpec(
        name="fuzzed",
        description="seeded policy of the run-to-block engine: random picks, "
        "legal wildcard perturbation and fault injection (the verification backend)",
        in_process=True,
        factory=_make_fuzzed,
    )
)
register(
    BackendSpec(
        name="threads",
        description="free-running OS threads, condition-variable mailboxes "
        "(concurrent, GIL-serialised)",
        in_process=True,
        factory=_make_threads,
        mode="threads",
    )
)
register(
    BackendSpec(
        name="parallel",
        description="one OS process per rank with shared-memory payload "
        "transport (real multi-core execution)",
        in_process=False,
        mode="parallel",
    )
)


def names() -> tuple[str, ...]:
    """Canonical backend names, registration order."""
    return tuple(_REGISTRY)


def resolve(name: str | None) -> str:
    """Resolve *name* (``None`` → the ``REPRO_BACKEND`` default).

    Raises :class:`~repro.errors.ReproError` for unknown names, listing
    the registered choices.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV) or "deterministic"
    if name not in _REGISTRY:
        raise ReproError(f"unknown backend {name!r}; choose from {names()}")
    return name


def get(name: str | None) -> BackendSpec:
    """The :class:`BackendSpec` registered under *name*."""
    return _REGISTRY[resolve(name)]


def create(name: str | None, nprocs: int, **options) -> "object":
    """Construct an in-process backend by name.

    *options* are the union of every backend's knobs (``seed``,
    ``faults``, ``deadlock_timeout``); each factory picks what it
    understands.  The process-parallel backend has no
    in-process factory — callers must dispatch on
    :attr:`BackendSpec.in_process` first.
    """
    spec = get(name)
    if spec.factory is None:
        raise ReproError(
            f"backend {spec.name!r} is process-parallel; it is driven by "
            "repro.runtime.parallel.run_parallel, not an in-process factory"
        )
    return spec.factory(nprocs, **options)
