"""The serve wire protocol: request schema, job states, and cache keys.

A job request is the 5-tuple the ROADMAP names — ``(app, params,
machine, seed, backend)`` — plus scheduling-only fields (priority,
timeout, weight) that never enter the cache key.  Everything is plain
JSON so requests round-trip over HTTP and into worker processes
unchanged.

Cache-key derivation
--------------------
:meth:`JobRequest.cache_key` digests the *canonical* request: the app
name, the fully-merged parameter dict (defaults overlaid with the
caller's overrides, so ``{}`` and an explicit restatement of the
defaults key identically), the machine name, the schedule seed, the
resolved backend name (``null`` takes the default), and the *pinned tuned
configuration*.  The digest reuses
:func:`repro.verify.digest.value_digest` — the same canonical encoding
that certifies cross-backend identity — so the key is stable across
processes and Python versions.  Because registered apps derive all of
their input from the params (see :mod:`repro.apps.registry`) and runs
are deterministic, two requests with equal keys provably produce equal
result digests; that is what makes serving a cached result sound.

Tuned configurations resolve at *admission*, not execution: a request
arriving without a ``tuned`` field gets the server's current
tuned-config catalog answer (possibly the empty config) pinned into it
by :meth:`JobRequest.validated` before the cache key is derived, a
client-supplied one is canonicalised there (malformed is a 400), and
the executor applies exactly the pinned config.  Tuned runtime knobs
change virtual clocks, so letting a worker's catalog state leak into a
run unrecorded would poison the cache; pinning makes the tuned state
part of the request's identity instead.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from repro.apps import registry
from repro.errors import ReproError
from repro.machines.catalog import list_machines
from repro.runtime import backends
from repro.verify.digest import value_digest

#: protocol version; bump on incompatible request-encoding or cache-entry
#: changes so a stale cache can never satisfy a request it does not
#: actually match, nor be read in a format it was not written in
#: (2: tuned-config pinning entered the request schema and cache key;
#: 3: a cache entry stores the event log, not the Chrome document)
SCHEMA_VERSION = 3

#: default per-job timeout (seconds) when neither the request nor the
#: server configuration names one
DEFAULT_TIMEOUT = 120.0


class ServeError(ReproError):
    """Invalid request or protocol misuse."""


class JobState(str, enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class JobRequest:
    """One archetype run request, as submitted over the wire.

    ``priority`` (higher runs earlier), ``timeout`` (per-job wall-clock
    seconds), and ``weight`` (admission cost hint: jobs at or below the
    server's small-job threshold are grouped into one worker dispatch)
    affect scheduling only — they are excluded from the cache key.
    """

    app: str
    params: dict[str, Any] = field(default_factory=dict)
    machine: str = "ideal"
    seed: int = 0
    backend: str = "deterministic"
    #: pinned tuned configuration (see :mod:`repro.tune.catalog`):
    #: ``None`` means "resolve from the server's catalog at admission",
    #: ``{}`` means "explicitly untuned"; after :meth:`validated` this is
    #: always a dict and part of the cache key
    tuned: dict[str, Any] | None = None
    priority: int = 0
    timeout: float | None = None
    weight: float = 1.0

    def validated(self) -> JobRequest:
        """Canonicalise and validate; raises :class:`ServeError` on bad input.

        Returns a request with the backend name resolved and the params
        fully merged over the app's registered defaults (so equivalent
        requests are *equal* requests).
        """
        try:
            spec = registry.get(self.app)
        except ReproError as exc:
            raise ServeError(str(exc)) from None
        if not isinstance(self.params, dict):
            raise ServeError(f"params must be an object, got {type(self.params).__name__}")
        if self.machine not in list_machines():
            raise ServeError(
                f"unknown machine {self.machine!r}; choose from {list_machines()}"
            )
        try:
            backend = backends.resolve(self.backend)
        except ReproError as exc:
            raise ServeError(str(exc)) from None
        _check("seed", self.seed, int)
        _check("priority", self.priority, int)
        if self.timeout is not None and not _check("timeout", self.timeout, float) > 0:
            raise ServeError(f"timeout must be positive, got {self.timeout}")
        if not _check("weight", self.weight, float) > 0:
            raise ServeError(f"weight must be positive, got {self.weight}")
        from repro.tune.catalog import TunedConfig

        if self.tuned is None:
            config = None  # resolved from the server's catalog
        elif isinstance(self.tuned, dict):
            try:
                config = TunedConfig.from_dict(self.tuned)
            except (TypeError, ValueError) as exc:
                raise ServeError(f"malformed tuned config: {exc}") from None
        else:
            raise ServeError(
                f"tuned must be an object or null, got {type(self.tuned).__name__}"
            )
        try:
            params, config = spec.configure(self.params, self.machine, config)
        except ReproError as exc:
            raise ServeError(str(exc)) from None
        # Pin the canonical form: keys the config does not have are
        # dropped, and a default config (a default winner included) pins
        # as {}, so one run cannot be cached under two keys.
        tuned = {} if config.is_default() else config.to_dict()
        return replace(self, params=params, backend=backend, tuned=tuned)

    def cache_key(self) -> str:
        """Content address of this request (validate first).

        Scheduling fields are deliberately absent: a high-priority
        request and a low-priority one for the same run share a result.
        """
        return value_digest(
            [
                "repro.serve.request",
                SCHEMA_VERSION,
                self.app,
                self.params,
                self.machine,
                self.seed,
                self.backend,
                self.tuned,
            ]
        )

    def to_json(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> JobRequest:
        if not isinstance(data, dict):
            raise ServeError("request body must be a JSON object")
        if "app" not in data:
            raise ServeError("request is missing the required 'app' field")
        unknown = sorted(set(data) - {f for f in cls.__dataclass_fields__})
        if unknown:
            raise ServeError(f"unknown request field(s) {unknown}")
        return cls(**data)


def _check(name: str, value: Any, kind: type) -> Any:
    """*value* when it is a JSON number of *kind* (``float`` admits
    integers; a bool is neither), else :class:`ServeError`."""
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        what = "a number" if kind is float else "an integer"
        raise ServeError(f"{name} must be {what}, got {value!r}")
    return value


def dumps(data: Any) -> bytes:
    """Canonical JSON encoding used on both sides of the wire."""
    return json.dumps(data, sort_keys=True).encode()


def loads(raw: bytes) -> Any:
    try:
        return json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(f"invalid JSON body: {exc}") from None
