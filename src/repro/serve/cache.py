"""Content-addressed result cache.

Layout: ``root/<key[:2]>/<key>/`` holds one completed run —

- ``result.json`` — the canonical request, its verify digest, per-rank
  virtual clocks, elapsed makespan, and the trace summary;
- ``outputs.pkl`` — the per-rank return values (pickle: outputs are
  arbitrary Python objects, often ndarrays);
- ``metrics.json`` — the job's metrics snapshot;
- ``trace.pkl`` — the run's columnar event log, one flat list per rank
  (when traced).  The Chrome trace-event document is built from it on
  read (:meth:`CachedResult.trace`), so a job nobody asks the trace of
  never pays for the export.

Entries are written into a temporary sibling directory and renamed into
place, so readers never observe a half-written entry; a second writer
racing on the same key loses the rename and discards its copy — both
copies are byte-identical by the determinism argument, so either winner
is correct.  A corrupt or truncated entry reads as a miss (and is
evicted) rather than an error: the cache is an optimisation, never a
source of truth.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.obs.chrome import chrome_trace
from repro.obs.metrics import counter_handle
from repro.trace.tracer import Tracer

_STORES = counter_handle("core.serve.cache.stores", help="cache entries written")
_EVICTIONS = counter_handle(
    "core.serve.cache.evictions", help="corrupt cache entries dropped on read"
)


class CachedResult:
    """One cache entry: the result record plus lazy artifact loaders."""

    def __init__(self, path: Path, record: dict[str, Any]):
        self._path = path
        self.record = record

    @property
    def digest(self) -> str:
        return self.record["digest"]

    def outputs(self) -> list[Any]:
        with (self._path / "outputs.pkl").open("rb") as fh:
            return pickle.load(fh)

    def metrics(self) -> dict[str, dict]:
        return json.loads((self._path / "metrics.json").read_text())

    def trace(self) -> dict[str, Any] | None:
        """The run's Chrome trace document, exported from the stored log
        (``None`` when the run was untraced)."""
        path = self._path / "trace.pkl"
        if not path.exists():
            return None
        with path.open("rb") as fh:
            return chrome_trace(Tracer.from_logs(pickle.load(fh)))


class ResultCache:
    """Directory-backed map from request cache key to completed result."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key

    def lookup(self, key: str) -> CachedResult | None:
        """The entry for *key*, or ``None`` (corrupt entries are evicted)."""
        path = self._entry_dir(key)
        if not path.is_dir():
            return None
        try:
            record = json.loads((path / "result.json").read_text())
            if record.get("key") != key or "digest" not in record:
                raise ValueError("entry does not match its key")
            if not (path / "outputs.pkl").exists():
                raise ValueError("entry is missing outputs")
            return CachedResult(path, record)
        except (OSError, ValueError, json.JSONDecodeError):
            shutil.rmtree(path, ignore_errors=True)
            _EVICTIONS.inc()
            return None

    def store(
        self,
        key: str,
        record: dict[str, Any],
        outputs: list[Any],
        metrics: dict[str, dict],
        trace: Tracer | None,
    ) -> CachedResult:
        """Persist one completed run under *key* (atomic rename)."""
        final = self._entry_dir(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        record = dict(record, key=key)
        tmp = Path(
            tempfile.mkdtemp(prefix=f".{key[:8]}-", dir=final.parent)
        )
        try:
            (tmp / "result.json").write_text(json.dumps(record, sort_keys=True, indent=1))
            with (tmp / "outputs.pkl").open("wb") as fh:
                pickle.dump(outputs, fh)
            (tmp / "metrics.json").write_text(json.dumps(metrics, sort_keys=True))
            if trace is not None:
                with (tmp / "trace.pkl").open("wb") as fh:
                    pickle.dump(trace.logs, fh)
            try:
                os.rename(tmp, final)
            except OSError:
                # Lost the race (or a previous entry exists): keep the
                # incumbent — determinism makes the copies identical.
                shutil.rmtree(tmp, ignore_errors=True)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        _STORES.inc()
        return CachedResult(final, record)

    def __len__(self) -> int:
        return sum(
            1
            for shard in self.root.iterdir()
            if shard.is_dir() and not shard.name.startswith(".")
            for entry in shard.iterdir()
            if entry.is_dir() and not entry.name.startswith(".")
        )
