# Convenience entry points.  PYTHONPATH is set so targets work without an
# editable install (the offline container has no `wheel`).
PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify test obs-smoke chaos bench bench-smoke bench-check bench-pairs \
	bench-pipeline serve-smoke tune-smoke unreached examples lint size msg-cost

# Default gate: lint (when ruff is available), tier-1 tests, and the
# observability smoke check.
verify: lint test obs-smoke

# Ruff over src/ and tests/ (configured in pyproject.toml).  The offline
# container may not ship ruff; CI installs it, so skip gracefully here.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi

# Tier-1 gate: the full suite (includes the chaos-marked tests at the
# default 4 seeds and the verify subsystem's own tests) — stays fast.
test:
	$(PYTHON) -m pytest -x -q

# Observability smoke: trace a small Poisson + mergesort run, export
# Chrome/Perfetto trace JSON, validate it against the trace-event
# structure, and check the critical-path invariant (path == makespan).
obs-smoke:
	$(PYTHON) -m repro.obs --smoke

# The chaos suite on its own: the 4-seed smoke sweep over every registered
# app + the racy controls, then every @pytest.mark.chaos test.
chaos:
	$(PYTHON) -m repro.verify --smoke
	$(PYTHON) -m pytest -q -m chaos

# Reduced-scale sweep over every figure plus the blocking-vs-overlapped
# exchange ablation, the pipeline farm-width sweep and the autotuning
# ablation — virtual time only, so it rewrites BENCH_FIGURES.json byte
# for byte; the diff check makes a changed figure a visible, deliberate
# edit of the committed file.  (Host seconds: bench-check / bench-pairs.)
bench:
	$(PYTHON) -m repro.bench all
	git diff --exit-code BENCH_FIGURES.json

# Pipeline smoke: the image-pipeline throughput/latency sweep on both
# modelled machines (virtual time only — fast everywhere).
bench-pipeline:
	$(PYTHON) -m repro.bench pipeline

# Job-server smoke: start a server on an ephemeral port with a
# throwaway cache, submit the same job twice (the second must be a
# cache hit with an identical digest and no new worker dispatch), then
# a third whose sampled re-execution must verify the cache bitwise,
# and shut down cleanly.
serve-smoke:
	$(PYTHON) -m repro.serve smoke

# Bench-of-record smoke: a <= 20 s pass over every perfbench workload
# (serve_miss, serve_hit, sim_comm, sim_kernel) — every pinned digest,
# virtual makespan and message count in perfbench/expected.json must
# hold — then perfbench's own unit tests.
bench-smoke:
	python3 -m perfbench --smoke
	$(PYTHON) -m pytest perfbench/tests -q

# Host-time regression gate: a full perfbench run compared against the
# committed result set.  Same-host only (perfbench/results/seed.json was
# measured on the reference container) and ~12 min, so not in CI.
bench-check:
	python3 -m perfbench --seed 7 --out perfbench/out/check.json
	python3 -m perfbench --compare perfbench/results/seed.json perfbench/out/check.json

# The paired rule (choosing-metrics section 8) as a command: BASE and the
# working tree run each workload alternately, PAIRS times, one seed per
# pair; prints medians, quartiles, wins and a verdict per metric and
# writes every run to OUT; beside each verdict stands the driver's spread
# rule (change's quartile distance <= bound x BASE's median).  ~1.2 min
# per pair per serve workload, ~1 min per sim workload.  WORKLOADS takes
# any of BENCHMARK.json's four: a serve-path change runs the serve pair, a
# runtime / comm / kernels change runs the sim pair to claim and the serve
# pair to show nothing moved —
#   make bench-pairs BASE=<commit> WORKLOADS="serve_miss serve_hit" PAIRS=10
#   make bench-pairs BASE=<commit> PAIRS=10 \
#       WORKLOADS="sim_comm sim_kernel serve_miss serve_hit"
# (sim_comm: 16 ranks on small sections — scheduler, mailbox, exchange
# and per-call kernel overhead; sim_kernel: 2 ranks on large grids —
# kernel bodies and payload copies.)
BASE ?= HEAD
WORKLOADS ?= serve_miss serve_hit
PAIRS ?= 10
OUT ?= bench_pairs.json
bench-pairs:
	python3 tools/bench_pairs.py --base $(BASE) --workloads "$(WORKLOADS)" \
		--pairs $(PAIRS) --out $(OUT)

# Autotuning smoke: exhaustive searches on every registered app at its
# verify_overrides sizes over two modern machines against a throwaway
# catalog — checks the entry is written, the tuned makespan never
# exceeds the default, a second search is a pure catalog hit, and the
# tuned end-to-end run's digest is bitwise-equal to the untuned run's.
tune-smoke:
	$(PYTHON) -m repro.tune smoke

# Every examples/*.py, each run from a throwaway directory (the demos
# save their fields into the working directory); fails on the first
# script that exits non-zero.
examples:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for script in examples/*.py; do \
		echo "== $$script"; \
		(cd "$$tmp" && PYTHONPATH="$(CURDIR)/src" $(PYTHON) "$(CURDIR)/$$script" >/dev/null) || exit 1; \
	done

# Deletion by evidence: every function under src/repro that no process
# of tier-1, the five CLI smokes, `repro.bench all`/`pipeline`, the
# examples and `perfbench --smoke` calls, per module (call events only,
# recorded in every process those start).  Report-only: rewrites
# tools/unreached_report.txt, so `git diff` shows what changed.
unreached:
	python3 tools/unreached.py --out tools/unreached_report.txt

# The two size numbers every change reports in CHANGES.md: src/ lines
# (`wc -l` over src/**/*.py) and the REPRO_* environment knobs src/ names.
size:
	@echo "src lines: $$(find src -name '*.py' -exec cat {} + | wc -l)"
	@echo "REPRO_* knobs: $$(grep -rhoE 'REPRO_[A-Z_]+' src --include='*.py' | sort -u | wc -l)"

# Host cost per small message on the run-to-block engine (~20 s, pinned
# to one CPU): µs and exact Python calls per message for 2-rank ping-pong
# and sendrecv and a 16-rank ring, and the bare thread switch.
# Report-only, no threshold: tests/test_message_cost.py holds the calls.
msg-cost:
	python3 tools/msg_cost.py
