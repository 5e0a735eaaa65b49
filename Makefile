# Developer entry points for the Quaestor reproduction.
#
#   make test            - tier-1 test suite (what CI gates on)
#   make test-durations  - tier-1 as `make test` runs it, then its wall time, the
#                          summed per-test durations and the 25 slowest phases
#   make bench-smoke     - fast benchmark subset (EBF micro + cluster scaling)
#   make bench           - every benchmark target (regenerates benchmarks/results/)
#   make bench-replication       - replica-read scale-out + failover drills;
#                                  rewrites BENCH_replication.json
#   make bench-replication-check - budget-mode run gated against the committed
#                                  BENCH_replication.json (fails when the RF=3
#                                  scale-out collapses or failover degrades)
#   make bench-ttl       - TTL estimator bake-off grid; rewrites BENCH_ttl.json
#   make bench-ttl-check - budget-mode run gated against the committed
#                          BENCH_ttl.json (fails when the winner's quality
#                          score collapses >3x; deterministic, seeded)
#   make sim-parallel-smoke       - oracle-parity, worker-invariance and
#                                   worker-failure tests of the partitioned engine
#   make smoke-failover  - seeded crash+recover scenario must stay deterministic
#   make bench-resilience        - availability/staleness chaos grid (resilience
#                                  on vs off); rewrites BENCH_resilience.json
#   make bench-resilience-check  - budget-mode run gated against the committed
#                                  BENCH_resilience.json (fails when resilience
#                                  stops beating the unprotected arm on a gray
#                                  scenario or staleness escapes the Δ budget)
#   make chaos-smoke     - seeded gray-failure scenarios (brownout/flaky/hedge)
#                          must stay deterministic and keep their wins
#   make verify-consistency       - full consistency audit: record histories for
#                                   the chaos x RF x consistency scenario matrix,
#                                   run the Δ-atomicity/session-guarantee checkers
#                                   (zero violations required) and the mutation
#                                   self-test (every injected breach detected),
#                                   then the slow_chaos pytest cells and the
#                                   online-vs-replayed staleness differential
#   make verify-consistency-smoke - one representative scenario per fault
#                                   archetype; the quick CI gate
#   make obs-smoke       - seeded brownout scenario with tracing on: asserts the
#                          summary is value-identical to the tracing-off run, the
#                          span tree is non-empty and >=95% of every request's
#                          latency is attributed; prints the recorders' price
#                          (retained objects/op, off vs on); writes benchmarks/results/obs/
#   make bench-ledger    - the repo's benchmark (BENCHMARK.json): four workloads,
#                          timed + traced pass, correctness checks (a)-(d)
#   make bench-ledger-smoke - the same runner on tiny budgets; the quick CI gate
#   make bench-pairs PARENT=<ref> WORKLOAD=<name> [PAIRS=10] [SEED=1234]
#                    [METRIC=host_ops_per_s]
#                        - alternating parent-vs-working-tree runs of the
#                          benchmark: medians, quartiles, wins, the gain verdict
#                          on METRIC (its BENCHMARK.json direction) and whether
#                          every sim_* value stayed identical
#   make wall-profile WORKLOAD=<name> [SEED=42]
#                        - sampled wall-clock profile of one benchmark segment:
#                          self and inclusive shares per function and per layer
#                          (no per-call overhead, unlike the cProfile pass)
#   make retained WORKLOAD=<name> [SEED=42]
#                        - one benchmark segment's cost to the cyclic collector:
#                          collector seconds and share, collections per
#                          generation, GC-tracked objects retained per op by type,
#                          traced bytes retained per op and left by a freed run
#   make budgets         - the machine-independent cost guards: frames and calls
#                          of every tests/*/test_*budget*.py path (seconds)
#   make docs-check      - fail if README.md or docs/ reference missing modules/files,
#                          if a src/repro module is an orphan, or if a backticked
#                          `Class.member` in README.md or docs/architecture.md
#                          names no member of its class
#   make unused-functions - function census gate (~60 s on two cores): fails on
#                          any def under src/repro that no entry point reaches
#                          (benchmark workloads, verify and obs smokes, fast
#                          examples, figure harnesses, behaviour pins, parity
#                          harness, a 4-partition faulted run, a causal audit
#                          cell) unless it is a dunder or declaration or is
#                          named in scripts/unused_allowlist.txt, and on any
#                          allowlist entry that covers nothing unreached

PYTHON ?= python
PYTEST  = PYTHONPATH=src $(PYTHON) -m pytest

# Benchmarks with their own CLI entry point (report writers / CI gates); every
# other benchmarks/bench_*.py file is a pytest-style benchmark that `make
# bench` collects.  New gated benchmarks are added HERE, not to a filter-out
# chain that silently rots when a file is renamed.
GATED_BENCH := \
	benchmarks/bench_replication.py \
	benchmarks/bench_ttl.py \
	benchmarks/bench_resilience.py

BENCH_FILES := $(filter-out $(GATED_BENCH),$(wildcard benchmarks/bench_*.py))

.PHONY: test test-durations budgets bench-smoke bench sim-parallel-smoke bench-replication bench-replication-check bench-ttl bench-ttl-check bench-resilience bench-resilience-check smoke-failover chaos-smoke verify-consistency verify-consistency-smoke obs-smoke bench-ledger bench-ledger-smoke bench-pairs wall-profile retained docs-check unused-functions

test:
	$(PYTEST) -x -q

test-durations:
	$(PYTHON) scripts/test_durations.py

budgets:
	$(PYTEST) $(wildcard tests/*/test_*budget*.py) -q

bench-smoke:
	$(PYTEST) benchmarks/bench_ebf_throughput.py benchmarks/bench_cluster_scaling.py -q

bench:
	$(PYTEST) $(BENCH_FILES) -q

sim-parallel-smoke:
	$(PYTEST) tests/simulation/test_parallel_parity.py tests/simulation/test_parallel_invariance.py tests/verify/test_parallel_history.py -q

bench-replication:
	$(PYTHON) benchmarks/bench_replication.py

bench-replication-check:
	$(PYTHON) benchmarks/bench_replication.py --budget --check BENCH_replication.json

bench-ttl:
	$(PYTHON) benchmarks/bench_ttl.py

bench-ttl-check:
	$(PYTHON) benchmarks/bench_ttl.py --budget --check BENCH_ttl.json

bench-resilience:
	$(PYTHON) benchmarks/bench_resilience.py

bench-resilience-check:
	$(PYTHON) benchmarks/bench_resilience.py --budget --check BENCH_resilience.json

smoke-failover:
	$(PYTEST) tests/replication/test_failover_smoke.py -q

chaos-smoke:
	$(PYTEST) tests/resilience/test_chaos_smoke.py -q

verify-consistency:
	PYTHONPATH=src $(PYTHON) -m repro.verify
	$(PYTEST) -m slow_chaos -q

verify-consistency-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.verify --smoke

obs-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.obs --smoke --out benchmarks/results/obs

bench-ledger:
	$(PYTHON) bench/run.py

bench-ledger-smoke:
	$(PYTHON) bench/run.py --smoke

bench-pairs:
	$(PYTHON) scripts/bench_pairs.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(or $(PAIRS),10) --seed $(or $(SEED),1234) --metric $(or $(METRIC),host_ops_per_s)

wall-profile:
	$(PYTHON) scripts/wall_profile.py --workload $(WORKLOAD) --seed $(or $(SEED),42)

retained:
	$(PYTHON) scripts/retained_objects.py --workload $(WORKLOAD) --seed $(or $(SEED),42)

docs-check:
	$(PYTHON) scripts/docs_check.py

unused-functions:
	PYTHONPATH=src $(PYTHON) scripts/unused_functions.py
