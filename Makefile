# Convenience targets for the MC3 reproduction.

PYTHON ?= python

# Worker processes for reprolint's parallel per-module pass; output is
# byte-identical to a serial run, so auto-scaling to the host is safe.
LINT_JOBS ?= $(shell nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 1)

.PHONY: install test bench bench-save experiments experiments-full examples lint analyze clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Bitset-core micro-benchmarks: reference (frozenset) vs. rewritten
# (bitmask) kernels, median timings written to BENCH_core.json.
bench-save:
	$(PYTHON) benchmarks/bench_bitspace.py --save BENCH_core.json
	$(PYTHON) benchmarks/bench_cache.py --save BENCH_cache.json
	$(PYTHON) benchmarks/bench_setcover_sublinear.py --save BENCH_setcover.json
	$(PYTHON) benchmarks/bench_service.py --save BENCH_service.json

experiments:
	$(PYTHON) -m repro.experiments all

experiments-full:
	$(PYTHON) -m repro.experiments all --full

examples:
	@for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Uses ruff (configured in pyproject.toml) when it is installed; falls
# back to a bytecode-compilation syntax sweep on minimal environments.
# reprolint (the in-repo determinism & solver-contract linter, see
# docs/devtools.md) is stdlib-only and therefore runs on both paths.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; falling back to compileall syntax check"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.devtools.reprolint --jobs $(LINT_JOBS) src tests benchmarks

# Whole-program determinism analysis (module graph -> call graph ->
# taint fixpoint; RPL5xx rules) gated against the checked-in baseline:
# any NEW finding fails, and any baseline entry that no longer
# reproduces fails too, so reprolint-baseline.json may only shrink.
analyze:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m repro.devtools.reprolint --analyze --baseline reprolint-baseline.json src

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .hypothesis .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
