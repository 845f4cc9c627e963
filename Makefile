# Convenience targets for the B-Cache reproduction.

PYTHON ?= python
LINT_FORMAT ?= text

.PHONY: install dev test lint typecheck bench bench-engine chaos serve gateway gateway-smoke trace loadgen top cluster experiments experiments-full examples clean

install:
	pip install -e .

dev:
	pip install -e .[dev]

test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.lint src/ --format $(LINT_FORMAT)

typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& mypy --strict src/repro \
		|| echo "mypy not installed; skipping (pip install mypy)"

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-engine:
	PYTHONPATH=src $(PYTHON) -m repro.engine.bench --out BENCH_engine_current.json \
		--check BENCH_engine.json

chaos:
	PYTHONPATH=src $(PYTHON) -m repro.engine.faultinject --workers 2 \
		--timeout 20 \
		--faults "crash@0,hang@1:0,flaky@2,corrupt_blob@3,torn_journal@4"

serve:
	PYTHONPATH=src $(PYTHON) -m repro.serve --port 4006 --shards 2

# HTTP tier in front of a running `make serve` (result cache + rate
# limiting live in the backend; start it with --result-cache to see
# repeated-mix speedups).
gateway:
	PYTHONPATH=src $(PYTHON) -m repro.serve.gateway \
		--port 8006 --backend 127.0.0.1:4006

# Full serving-stack smoke: serve + gateway + loadgen over HTTP with a
# repeated mix; asserts cache hits, dedup, and bit-identity.
gateway-smoke:
	PYTHONPATH=src $(PYTHON) scripts/gateway_smoke.py

# Distributed-tracing smoke: off-tier baseline (bit-identical, no event
# log) then a REPRO_OBS=full gateway+serve leg whose merged logs must
# pass `bcache-trace --check` (>=99% complete single-rooted waterfalls).
trace:
	PYTHONPATH=src $(PYTHON) scripts/trace_smoke.py

loadgen:
	PYTHONPATH=src $(PYTHON) -m repro.serve.loadgen \
		--connect 127.0.0.1:4006 --requests 200 --clients 8 --verify

top:
	PYTHONPATH=src $(PYTHON) -m repro.obs.top

# Chaos-test the fleet coordinator against a local 2-node fleet:
# start two bcache-serve processes, sweep with node faults injected,
# and require bit-identity with a serial run plus >=1 redispatch.
cluster:
	PYTHONPATH=src $(PYTHON) scripts/cluster_smoke.py

experiments:
	PYTHONPATH=src $(PYTHON) -m repro.cli all --scale default

experiments-full:
	PYTHONPATH=src $(PYTHON) -m repro.cli all --scale full

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py 50000
	PYTHONPATH=src $(PYTHON) examples/custom_workload.py 30000
	PYTHONPATH=src $(PYTHON) examples/design_space_exploration.py crafty 30000
	PYTHONPATH=src $(PYTHON) examples/performance_energy_tradeoff.py equake 20000
	PYTHONPATH=src $(PYTHON) examples/pipeline_models.py equake 15000

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
