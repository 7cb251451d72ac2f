#!/usr/bin/env python3
"""List the functions under ``src/repro`` that nothing calls.

    python3 tools/unreached.py                         # the standard evidence
    python3 tools/unreached.py --out tools/unreached_report.txt
    python3 tools/unreached.py -- python -m pytest -q tests/test_tune.py

Runs each command with a call recorder in every Python process it
starts, then reports, per module, every ``def`` under ``src/repro``
whose code object never received a call.  With no command it runs the
standard evidence: tier-1, the five CLI smokes, ``repro.bench all`` and
``pipeline``, every ``examples/*.py`` and ``perfbench --smoke``.

How it records: ``sys.settrace`` + ``threading.settrace`` with a tracer
that notes the frame's code object on ``call`` events and returns
``None``, so no line event is ever traced.  A generated
``sitecustomize`` on ``PYTHONPATH`` starts the recorder when any
interpreter starts, so spawn-started children and subprocesses record
too; each process writes its set at exit, and a wrapper around
``multiprocessing.process.BaseProcess._bootstrap`` writes a
fork-started rank or pool child's set before it leaves through
``os._exit``.  A process killed by a signal (the serve tests kill
workers on purpose) writes nothing, so a listed function is a candidate:
read it before deleting it, or give it a contract test that needs it.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: names the directory a recording process writes its set into
OUT_ENV = "UNREACHED_OUT"

EVIDENCE = [
    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
    [sys.executable, "-m", "repro.obs", "--smoke"],
    [sys.executable, "-m", "repro.verify", "--smoke"],
    [sys.executable, "-m", "repro.verify", "--cross-backend"],
    [sys.executable, "-m", "repro.serve", "smoke"],
    [sys.executable, "-m", "repro.tune", "smoke"],
    [sys.executable, "-m", "repro.bench", "all", "--json", "{tmp}/figures.json"],
    [sys.executable, "-m", "repro.bench", "pipeline"],
    *([sys.executable, str(p)] for p in sorted((ROOT / "examples").glob("*.py"))),
    [sys.executable, "-m", "perfbench", "--smoke"],
]

_SITECUSTOMIZE = """\
import importlib.util
_spec = importlib.util.spec_from_file_location("_unreached", {path!r})
_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_module)
_module.record()
"""


def record() -> None:
    """Start recording this process's calls (the generated
    ``sitecustomize`` calls this when ``UNREACHED_OUT`` is set)."""
    out = os.environ.get(OUT_ENV)
    if not out:
        return
    seen: dict[int, object] = {}  # id -> code; holding it keeps the id unique

    def tracer(frame, event, arg):
        seen[id(frame.f_code)] = frame.f_code

    def dump() -> None:
        sys.settrace(None)
        prefix = str(PACKAGE) + os.sep
        lines = {
            f"{code.co_filename}:{code.co_firstlineno}"
            for code in list(seen.values())
            if code.co_filename.startswith(prefix)
        }
        fd, _ = tempfile.mkstemp(dir=out, prefix=f"{os.getpid()}-", suffix=".txt")
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(sorted(lines)))

    from multiprocessing.process import BaseProcess

    bootstrap = BaseProcess._bootstrap

    def _bootstrap(self, *args, **kwargs):
        try:
            return bootstrap(self, *args, **kwargs)
        finally:
            dump()

    BaseProcess._bootstrap = _bootstrap
    atexit.register(dump)
    threading.settrace(tracer)
    sys.settrace(tracer)


def defined() -> dict[tuple[str, int], str]:
    """Every ``def`` under the package: (file, first line) -> qualified name.

    The first line is the first decorator's, as in ``co_firstlineno``.
    """
    out: dict[tuple[str, int], str] = {}

    def walk(node: ast.AST, path: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[(path, first)] = scope + child.name
                walk(child, path, f"{scope}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{scope}{child.name}.")
            else:
                walk(child, path, scope)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path), "")
    return out


def called(out: Path) -> set[tuple[str, int]]:
    hits = set()
    for dump in out.glob("*.txt"):
        for line in dump.read_text().splitlines():
            path, _, first = line.rpartition(":")
            hits.add((path, int(first)))
    return hits


def report(functions: dict[tuple[str, int], str], hits: set, runs: list[str]) -> str:
    missing: dict[str, list[tuple[int, str]]] = {}
    for (path, first), name in functions.items():
        if (path, first) not in hits:
            missing.setdefault(path, []).append((first, name))
    total = sum(len(v) for v in missing.values())
    lines = [
        "# Functions under src/repro that no recorded process called",
        "# (python3 tools/unreached.py; `make unreached` regenerates this file).",
        "# Evidence:",
        *(f"#   {run}" for run in runs),
        f"# {total} of {len(functions)} functions never called, "
        f"in {len(missing)} of {len({p for p, _ in functions})} modules.",
        "",
    ]
    for path in sorted(missing):
        rel = Path(path).relative_to(SRC)
        count = sum(1 for p, _ in functions if p == path)
        lines.append(f"{rel}  ({len(missing[path])} of {count})")
        lines.extend(f"  {first:>5}  {name}" for first, name in sorted(missing[path]))
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="List the functions under src/repro that nothing calls."
    )
    parser.add_argument("--out", type=Path, help="write the report here (default: stdout)")
    parser.add_argument("command", nargs="*", help="one command to record instead of the evidence")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        dumps = Path(tmp) / "dumps"
        hook = Path(tmp) / "hook"
        dumps.mkdir()
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.format(path=str(Path(__file__).resolve()))
        )
        env = dict(os.environ, **{OUT_ENV: str(dumps)})
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(hook), str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        commands = [args.command] if args.command else EVIDENCE
        runs = []
        for command in commands:
            command = [part.replace("{tmp}", tmp) for part in command]
            started = time.monotonic()
            code = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            ).returncode
            shown = " ".join(
                "python" if part == sys.executable else part.replace(tmp, "$TMP")
                for part in command
            ).replace(str(ROOT) + os.sep, "")
            print(f"exit {code}  {time.monotonic() - started:6.1f} s  {shown}", file=sys.stderr)
            runs.append(f"{shown}  (exit {code})")
        text = report(defined(), called(dumps), runs)
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
