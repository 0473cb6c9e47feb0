PYTHON ?= python
export PYTHONPATH := src

.PHONY: check test fuzz-smoke perf-smoke robustness-smoke obs-smoke parallel-smoke batch-smoke chaos-smoke serve-smoke incr-smoke fuzz fuzz-sensitivity bench bench-sweeps

# The default tier-1 run includes every smoke tier below (they all live
# under tests/), parallel-smoke among them.
test:
	$(PYTHON) -m pytest -x -q

# CI umbrella: tier-1 plus a focused re-run of the perf-critical smoke
# tiers.  The focused tiers repeat a subset of tier-1 on purpose -- a
# marker-filter regression (a tier silently collecting zero tests)
# shows up here as an empty run, not as green CI.  batch-smoke carries
# the vectorized-replay differential campaign and its overhead guard;
# chaos-smoke injects faults into the pool and proves bit-identity.
check: test perf-smoke batch-smoke parallel-smoke chaos-smoke serve-smoke incr-smoke

fuzz-smoke:
	$(PYTHON) -m pytest -q -m fuzz_smoke

# Differential guardrails for the performance layer: predecoded
# interpreter, columnar traces and event-driven timing model vs the
# preserved reference implementations, and the dependence-graph builder
# vs the reference PDG builder in tests/analysis/reference_pdg.py
# (docs/PERFORMANCE.md).
perf-smoke:
	$(PYTHON) -m pytest -q -m perf_smoke

# Supervised-execution guardrails: machine-level fault matrix,
# deadlock forensics, graceful degradation (docs/ROBUSTNESS.md).
robustness-smoke:
	$(PYTHON) -m pytest -q -m robustness_smoke

# Observability guardrails: Chrome-trace schema round-trip, disabled
# observers change nothing (docs/OBSERVABILITY.md).
obs-smoke:
	$(PYTHON) -m pytest -q -m obs_smoke

# Execution-fabric guardrails: worker-pool parity and crash recovery,
# result transport, scheduler and cost-model properties
# (docs/PERFORMANCE.md).
parallel-smoke:
	$(PYTHON) -m pytest -q -m parallel_smoke

# Batched-simulation guardrails for the service's engine:
# BatchedSimulator vs the per-config oracle on fuzz loops and
# randomized config batches, frozen-sweep golden regression through
# both engines, vector-lane routing of the bench figures' config
# groups (docs/PERFORMANCE.md).
batch-smoke:
	$(PYTHON) -m pytest -q -m batch_smoke

# Chaos-engineering guardrails: seeded fault injection into the worker
# pool (kill/hang/flake/store corruption), the differential
# bit-identity campaign, killed-sweep re-runs, journal integrity
# (docs/CHAOS.md).
chaos-smoke:
	$(PYTHON) -m pytest -q -m chaos_smoke

# Service-daemon guardrails: a real `repro serve` subprocess serving a
# mixed campaign -- request coalescing, bit-identity against in-process
# runs, per-tenant quota refusals, graceful SIGTERM drain
# (docs/SERVICE.md).
serve-smoke:
	$(PYTHON) -m pytest -q -m serve_smoke

# Incremental-DAG guardrails: cold/warm/machine-edit sweeps against
# one artifact store -- a warm re-run schedules zero stages and stays
# bit-identical, a simulator edit re-simulates cached traces without
# re-interpreting (docs/INCREMENTAL.md).
incr-smoke:
	$(PYTHON) -m pytest -q -m incr_smoke

# Longer differential campaign (not part of CI); override knobs like
#   make fuzz FUZZ_SEED=7 FUZZ_ITERATIONS=2000
FUZZ_SEED ?= 0
FUZZ_ITERATIONS ?= 500
FUZZ_OUT ?= fuzz-reproducers

fuzz:
	$(PYTHON) -m repro fuzz --seed $(FUZZ_SEED) \
		--iterations $(FUZZ_ITERATIONS) --out $(FUZZ_OUT)

# Prove the oracle catches every injectable splitter bug.
fuzz-sensitivity:
	@set -e; for fault in drop-dep-arc drop-produce drop-consume \
		cross-queues drop-initial-flow; do \
		$(PYTHON) -m repro fuzz --seed 1 --iterations 25 \
			--inject $$fault --max-failures 1; \
	done

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Parallel Fig. 9 sweeps with the naive-vs-optimized wall-clock and
# functional-identity report (BENCH_<figure>.json).
BENCH_SCALE ?= 800
BENCH_OUT ?= .

bench-sweeps:
	$(PYTHON) -m repro bench --scale $(BENCH_SCALE) --out $(BENCH_OUT)
