#!/usr/bin/env python3
"""Where a perfbench sim workload spends host CPU, over all its threads.

    python3 tools/profile_sim.py sim_kernel            # one row per case
    python3 tools/profile_sim.py sim_comm poisson      # one case in detail

cProfile sees only the thread that enabled it and the deterministic engine
runs each rank on a thread of its own, so ``DeterministicBackend._rank_main``
is wrapped to run under one profiler per rank thread; their stats are merged
with the main thread's.  ``lock.acquire`` is dropped: it is a rank waiting
its turn, which on the one CPU this pins itself to is some other rank's
work, already counted.  With no app it walks every case of the workload and
prints each case's total self time and the share of it in the application
bodies (``repro/apps`` + ``<kernel ...>``), the par-loop layer
(``repro/kernels``), the archetype skeletons (``repro/core``: mesh context
and grids, the pipeline, the one-deep skeleton), the engine
(``repro/runtime`` + ``repro/comm`` + ``repro/obs``) and native code;
beside them the messages delivered (``runtime.mailbox.enqueued``) and
scheduling steps (``runtime.scheduler.steps``), so self time per message
can be read off the row, then the exact Python-level calls per delivered
message (``py calls/msg``: every call of the warm run, counted in a pass of
its own by ``msg_cost.count_calls``, a counting-only profile hook, not
under cProfile), and how many ``ParLoop`` objects the case built
for how many loop runs (every mesh app declares its loops above the time
loop, so it builds ranks x declared loops: ``sim_comm`` poisson 32/1280,
cfd 32/192; ``sim_kernel`` smog 16/80, spectralflow 48/120, poisson 4/96,
cfd 4/56, fdtd 4/96); with an app it prints that case's self time by
module and its top functions.  The summary ends with the workload's total
Python-level calls.  Piped into ``head``, it stops quietly.
Either way every case's perfbench pin is asserted (perfbench is imported,
never changed).
cProfile taxes Python calls and not native code: this finds candidates,
``make bench-pairs`` measures them.
"""

import cProfile
import os
import pstats
import sys
import tempfile
from collections import Counter
from pathlib import Path

from msg_cost import count_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src") + os.sep

#: the summary's columns: name, module prefixes (relative to ``src/``)
LAYERS = (
    ("bodies", ("repro/apps/", "<kernel ")),
    ("kernels", ("repro/kernels/",)),
    ("skeleton", ("repro/core/",)),
    ("engine", ("repro/runtime/", "repro/comm/", "repro/obs/")),
    ("native", ("<native>",)),
)


def profile_case(workload: str, app: str) -> tuple[dict, int, str, str, int, int]:
    """``({(file, line, function): self seconds}, threads, "msgs/steps",
    "built/runs", calls, msgs)`` of one warm run: the profile, messages
    delivered and scheduling steps, ``ParLoop`` constructions per loop
    run, and, from a further warm run under :func:`count_calls`, its
    Python-level calls beside the messages delivered."""
    from perfbench import cases, pins
    from repro.kernels.ir import ParLoop
    from repro.kernels.runtime import KernelEngine
    from repro.runtime.scheduler import DeterministicBackend

    params = dict(cases.SIM_CASES[workload])[app]
    profiles: list[cProfile.Profile] = []
    rank_main = DeterministicBackend._rank_main

    def profiled_rank_main(self, rank, body):
        profile = cProfile.Profile()  # a local: rank threads start concurrently
        profiles.append(profile)
        profile.runcall(rank_main, self, rank, body)

    DeterministicBackend._rank_main = profiled_rank_main
    try:
        pins.run_case(app, params)  # cold run: imports, memoised geometry
        profiles[:] = [cProfile.Profile()]
        run = profiles[0].runcall(pins.run_case, app, params)
    finally:
        DeterministicBackend._rank_main = rank_main
    if error := run.mismatch(pins.load()[cases.case_id(workload, app)]):
        raise SystemExit(f"pin broken: {workload}/{app}: {error}")
    stats = pstats.Stats(*profiles).stats
    rows = {
        func: self_s
        for func, (_, _, self_s, _, _) in stats.items()
        if "'acquire' of '_thread.lock'" not in func[2]
    }

    def calls(fn) -> int:  # the profile's key is where the code object says it is
        code = fn.__code__
        return stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0))[1]

    def count(name: str) -> int:
        return int(run.counters.get(name, {}).get("value", 0))

    runs = calls(KernelEngine.submit)
    python_calls, _ = count_calls(lambda: pins.run_case(app, params))
    return (
        rows,
        len(profiles),
        f"{count('runtime.mailbox.enqueued')}/{count('runtime.scheduler.steps')}",
        f"{calls(ParLoop.__init__)}/{runs}" if runs else "-",
        python_calls,
        count("runtime.mailbox.enqueued"),
    )


def by_module(rows: dict) -> Counter[str]:
    modules: Counter[str] = Counter()
    for (filename, _, _), self_s in rows.items():
        modules["<native>" if filename == "~" else filename.replace(SRC, "")] += self_s
    return modules


def main(workload: str, app: str | None = None) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, str(ROOT)]
    from perfbench import cases

    with tempfile.TemporaryDirectory() as tune_dir:
        os.environ["REPRO_TUNE_DIR"] = tune_dir  # as perfbench: no host catalog
        if app is None:
            print(
                f"{'case':<24} {'self ms':>8} "
                + " ".join(f"{name:>9}" for name, _ in LAYERS)
                + f" {'msgs/steps':>12} {'py calls/msg':>12}  ParLoops built/run"
            )
            total_calls = 0
            for case, _ in cases.SIM_CASES[workload]:
                rows, _, traffic, built, python_calls, msgs = profile_case(workload, case)
                total_calls += python_calls
                modules = by_module(rows)
                total = sum(modules.values())
                shares = (
                    sum(s for m, s in modules.items() if m.startswith(prefixes)) / total
                    for _, prefixes in LAYERS
                )
                per_msg = f"{python_calls / msgs:.1f}" if msgs else "-"
                print(
                    f"{workload + '/' + case:<24} {total * 1e3:8.1f} "
                    + " ".join(f"{share:9.1%}" for share in shares)
                    + f" {traffic:>12} {per_msg:>12}  {built}"
                )
            print(f"{total_calls} Python-level calls in all; every pin holds")
            return
        rows, threads, traffic, built, _, _ = profile_case(workload, app)
    total = sum(rows.values())
    print(
        f"{workload}/{app}: {total * 1e3:.1f} ms self time on {threads} threads "
        f"(pin holds; msgs/steps: {traffic}; ParLoops built/run: {built})"
    )
    for module, self_s in by_module(rows).most_common(12):
        print(f"{self_s * 1e3:9.1f} ms {self_s / total:6.1%}  {module}")
    for (filename, line, name), self_s in sorted(rows.items(), key=lambda r: -r[1])[:20]:
        where = "" if filename == "~" else f"  {filename.replace(SRC, '')}:{line}"
        print(f"{self_s * 1e3:9.1f} ms {self_s / total:6.1%}  {name}{where}")


if __name__ == "__main__":
    try:
        main(*sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``| head``): point stdout at /dev/null so the
        # interpreter's final flush cannot raise again, and stop.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
