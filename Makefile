# Developer convenience targets for the reproduction.

.PHONY: install test bench bench-baseline bench-smoke bench-e2e-smoke perf-gate chaos-smoke serve-chaos experiments report examples all clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Kernel-backend baseline: records wall-clock numbers for every
# registered BFS kernel (reference / activeset / cnative) on a real
# mid-BFS level to BENCH_kernels.json, with backend/scale metadata in
# extra_info and the commit hash in commit_info.  The comm baseline
# records the frontier-codec byte table (raw vs wire allgather bytes per
# codec at the paper configuration) to BENCH_comm.json and enforces the
# >=30 % auto reduction.  Compare runs with `repro-perf diff` (the
# perf-gate target) or `pytest-benchmark compare`.
# See docs/PERFORMANCE.md and docs/COMMUNICATION.md.
bench-baseline:
	pytest benchmarks/bench_kernels.py --benchmark-only \
		--benchmark-json=BENCH_kernels.json
	pytest benchmarks/bench_comm.py --benchmark-only \
		--benchmark-json=BENCH_comm.json

# Fresh benchmark JSONs for gating (not the committed baselines):
# kernels at the CI smoke scale (12), comm at the baseline scale (15 —
# its simulated metrics are deterministic, so they diff exactly against
# the committed file even across machines).
bench-smoke:
	mkdir -p .perfgate
	REPRO_BENCH_SCALE=12 pytest benchmarks/bench_kernels.py --benchmark-only \
		--benchmark-json=.perfgate/BENCH_kernels.json
	pytest benchmarks/bench_comm.py --benchmark-only \
		--benchmark-json=.perfgate/BENCH_comm.json

# Self-check of the end-to-end benchmark harness at --smoke sizes
# (~1 min).  benchmarks/e2e is outside tier-1's testpaths, and a traced
# run wraps layer boundaries *by name* (KernelBackend.top_down_expand,
# core.topdown.apply_received, SimComm.alltoallv, ...): this is what
# notices when a refactor renames or bypasses one.
# See benchmarks/e2e/README.md.
bench-e2e-smoke:
	PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_selfcheck.py

# Regression gate: diff the fresh bench-smoke JSONs against the
# committed baselines.  Wall-clock stats are ignored (baselines come
# from another machine); simulated metrics get a generous 100 %
# (2x sim-time) tolerance.  Kernel benchmarks carrying a different
# scale context are reported as incomparable, not gated.
# See docs/OBSERVABILITY.md.
perf-gate: bench-smoke
	repro-perf diff BENCH_kernels.json .perfgate/BENCH_kernels.json \
		--fail-on-regress 100 --no-wall --json .perfgate/verdict_kernels.json
	repro-perf diff BENCH_comm.json .perfgate/BENCH_comm.json \
		--fail-on-regress 100 --no-wall --json .perfgate/verdict_comm.json

# Fault-injection campaign: sweep the chaos scenario catalogue at the
# CI smoke scale and fail unless every scenario comes back recovered
# (bit-identical + validated) or degraded-but-correct.  The JSON report
# lands in .perfgate/ next to the perf verdicts.  See docs/ROBUSTNESS.md.
chaos-smoke:
	mkdir -p .perfgate
	repro-chaos --scale 12 --nodes 2 --seed 0 \
		--json .perfgate/chaos-report.json

# Serving-layer chaos: inject a dispatcher kill and a straggler batch
# into a resilience-enabled scheduler under load; both scenarios must
# end `recovered` (SLO burn detected then cleared, answers correct).
# See the "Serving resilience" sections of docs/ROBUSTNESS.md and
# docs/SERVING.md.
serve-chaos:
	mkdir -p .perfgate
	repro-chaos serve dispatcher-kill straggler \
		--scale 11 --nodes 2 --seed 0 \
		--json .perfgate/serve-chaos-report.json \
		--slo-out .perfgate/serve-chaos-slo.json

experiments:
	repro-experiment all --quick

report:
	python -m repro.experiments.report EXPERIMENTS.md

examples:
	python examples/quickstart.py 13
	python examples/social_network_analysis.py 13
	python examples/cluster_design_space.py
	python examples/granularity_tuning.py 30 8

all: install test bench report

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf src/repro.egg-info .benchmarks
