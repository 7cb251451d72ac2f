#!/usr/bin/env python3
"""Where one perfbench sim case spends host CPU, over all its threads.

    python3 tools/profile_sim.py sim_comm poisson

cProfile sees only the thread that enabled it and the deterministic engine
runs each rank on a thread of its own, so ``DeterministicBackend._rank_main``
is wrapped to run under one profiler per rank thread; their stats are merged
with the main thread's.  ``lock.acquire`` is dropped: it is a rank waiting
its turn, which on the one CPU this pins itself to is some other rank's
work, already counted.  Prints self time by module and the top functions,
and asserts the case's perfbench pin (perfbench is imported, never changed).
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

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src") + os.sep


def main(workload: str, app: str) -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [SRC, str(ROOT)]
    from perfbench import cases, pins
    from repro.runtime.scheduler import DeterministicBackend

    params = dict(cases.SIM_CASES[workload])[app]
    profiles: list[cProfile.Profile] = []
    rank_main = DeterministicBackend._rank_main

    def profiled_rank_main(self, rank, body):
        profile = cProfile.Profile()  # a local: rank threads start concurrently
        profiles.append(profile)
        profile.runcall(rank_main, self, rank, body)

    DeterministicBackend._rank_main = profiled_rank_main
    with tempfile.TemporaryDirectory() as tune_dir:
        os.environ["REPRO_TUNE_DIR"] = tune_dir  # as perfbench: no host catalog
        pins.run_case(app, params)  # cold run: imports, memoised geometry
        profiles[:] = [cProfile.Profile()]
        run = profiles[0].runcall(pins.run_case, app, params)
    if error := run.mismatch(pins.load()[cases.case_id(workload, app)]):
        raise SystemExit(f"pin broken: {error}")
    rows = {
        func: self_s
        for func, (_, _, self_s, _, _) in pstats.Stats(*profiles).stats.items()
        if "'acquire' of '_thread.lock'" not in func[2]
    }
    total = sum(rows.values())
    by_module: Counter[str] = Counter()
    for (filename, _, _), self_s in rows.items():
        by_module["<native>" if filename == "~" else filename.replace(SRC, "")] += self_s
    print(f"{workload}/{app}: {total * 1e3:.1f} ms self time on {len(profiles)} threads (pin holds)")
    for module, self_s in by_module.most_common(12):
        print(f"{self_s * 1e3:9.1f} ms {self_s / total:6.1%}  {module}")
    for (filename, line, name), self_s in sorted(rows.items(), key=lambda r: -r[1])[:20]:
        where = "" if filename == "~" else f"  {filename.replace(SRC, '')}:{line}"
        print(f"{self_s * 1e3:9.1f} ms {self_s / total:6.1%}  {name}{where}")


if __name__ == "__main__":
    main(*sys.argv[1:])
