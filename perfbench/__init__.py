"""The bench of record: host-clock workloads over the serve path and the simulator.

``BENCHMARK.json`` at the repository root names every workload and
metric; ``python3 -m perfbench --workload W --seed N --seconds S --trace
0|1`` makes one run and prints one JSON result line, and ``python3 -m
perfbench --seed N --out FILE`` makes the whole set.  Nothing here is
imported by ``repro``: every layer is timed from outside, through its
public functions.  See ``perfbench/README.md``.
"""
