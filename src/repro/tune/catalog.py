"""Versioned on-disk catalog of tuned configurations.

One JSON file per (app, machine) under the catalog root — the directory
a :func:`rooted` block names, else ``$REPRO_TUNE_DIR`` when set, else
``~/.cache/repro/tuned`` — with one entry per rank count.  Entries
record the winning :class:`TunedConfig` together with the evidence for
it (predicted and measured virtual makespans, the default's makespan,
the canonical result digest, and a signature of the search space), so a
later ``search`` over an unchanged space is a catalog hit that
re-measures nothing.

Who consults: the named-app entry point, once per run —
:meth:`repro.apps.registry.AppSpec.configure`, which
:meth:`~repro.apps.registry.AppSpec.run` (registry, obs, verify and tune
callers) and :meth:`repro.serve.protocol.JobRequest.validated` (the job
server, at admission) both call.  ``Archetype.run`` never does: a
program run directly depends on its arguments alone, and ``proc_grid=``
is how a caller pins a grid by hand.  Consultation rules:

* explicit parameters always win — registry callers' explicit params
  are never overridden by tuned ones;
* a caller that passes a configuration (``AppSpec.run(tuned=...)``) is
  never consulted for one: the searcher measures each candidate, the
  serve executor runs the config pinned at admission, and
  ``tuned=TunedConfig()`` (a job request's ``"tuned": {}``) is the
  untuned run — the only off switch there is.

A config's process grid reaches the program as ``Archetype.run(proc_grid=)``,
an argument every rank's body receives, on every engine.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.obs.metrics import counter_handle

#: bump when the entry layout changes; mismatched files are ignored
SCHEMA_VERSION = 1

DIR_ENV = "REPRO_TUNE_DIR"

_HITS = counter_handle("core.tune.catalog_hits", help="catalog lookups that found an entry")
_MISSES = counter_handle("core.tune.catalog_misses", help="catalog lookups that found nothing")

#: the directory of the innermost :func:`rooted` block, if any
_root: Path | None = None


def root() -> Path:
    """The catalog directory (not created until something is stored)."""
    if _root is not None:
        return _root
    override = os.environ.get(DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "tuned"


@contextmanager
def rooted(path: str | Path) -> Iterator[Path]:
    """Use the catalog under *path* for the block: a throwaway catalog
    that neither reads nor writes the user's tuned configs."""
    global _root
    previous, _root = _root, Path(path)
    try:
        yield _root
    finally:
        _root = previous


def entry_path(app: str, machine: str) -> Path:
    return root() / f"{app}--{machine}.json"


@dataclass(frozen=True)
class TunedConfig:
    """One configuration point: the two things virtual time can see.

    *proc_grid* ``None`` means "leave the default factorisation alone".
    *params* holds knobs that are app parameters (``overlap``, farm
    widths/windows) — applied by the registry's :meth:`AppSpec.run`,
    not by env.
    """

    proc_grid: tuple[int, ...] | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def is_default(self) -> bool:
        return self.proc_grid is None and not self.params

    def to_dict(self) -> dict:
        return {
            "proc_grid": list(self.proc_grid) if self.proc_grid else None,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TunedConfig":
        """Unknown keys are ignored, so files and requests written when
        the config had more fields still load."""
        grid = d.get("proc_grid")
        proc_grid = tuple(int(x) for x in grid) if grid else None
        if proc_grid and min(proc_grid) < 1:
            raise ValueError(f"process-grid dims must be >= 1, got {proc_grid}")
        return cls(proc_grid=proc_grid, params=dict(d.get("params") or {}))

    def describe(self) -> str:
        parts = []
        if self.proc_grid:
            parts.append("grid=" + "x".join(str(d) for d in self.proc_grid))
        parts.extend(f"{k}={v}" for k, v in sorted(self.params.items()))
        return " ".join(parts) or "default"


@dataclass(frozen=True)
class TunedEntry:
    """A catalog record: the winning config and the evidence for it."""

    config: TunedConfig
    #: closed-form prediction for the winner (None when unpredicted)
    predicted: float | None
    #: measured virtual makespan of the winner
    measured: float
    #: measured virtual makespan of the default configuration
    default_measured: float
    #: canonical result digest (bitwise-equal to the default run's)
    digest: str
    #: digest of the searched space; an unchanged space means a re-run
    #: of ``search`` is a catalog hit
    space_signature: str

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "predicted": self.predicted,
            "measured": self.measured,
            "default_measured": self.default_measured,
            "digest": self.digest,
            "space_signature": self.space_signature,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "TunedEntry":
        return cls(
            config=TunedConfig.from_dict(d["config"]),
            predicted=d.get("predicted"),
            measured=float(d["measured"]),
            default_measured=float(d["default_measured"]),
            digest=str(d["digest"]),
            space_signature=str(d["space_signature"]),
        )


def load(app: str, machine: str) -> dict[str, TunedEntry]:
    """All entries for (app, machine), keyed by rank count (as a string).

    Missing, corrupt, or schema-mismatched files read as empty — a stale
    catalog can degrade to defaults but never break a run.
    """
    path = entry_path(app, machine)
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return {}
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        return {}
    out: dict[str, TunedEntry] = {}
    for key, raw in (doc.get("entries") or {}).items():
        try:
            out[str(key)] = TunedEntry.from_dict(raw)
        except (KeyError, TypeError, ValueError):
            continue
    return out


def store(app: str, machine: str, nprocs: int, entry: TunedEntry) -> Path:
    """Merge *entry* into the (app, machine) file; atomic replace."""
    entries = load(app, machine)
    entries[str(nprocs)] = entry
    doc = {
        "schema": SCHEMA_VERSION,
        "app": app,
        "machine": machine,
        "entries": {k: e.to_dict() for k, e in sorted(entries.items())},
    }
    path = entry_path(app, machine)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def lookup(app: str, machine: str, nprocs: int) -> TunedEntry | None:
    """The stored entry for (app, machine, nprocs), if any."""
    return load(app, machine).get(str(nprocs))


def consult(app: str, machine: str, nprocs: int) -> TunedEntry | None:
    """:func:`lookup`, counting hits and misses."""
    entry = lookup(app, machine, nprocs)
    if entry is None:
        _MISSES.inc()
    else:
        _HITS.inc()
    return entry
