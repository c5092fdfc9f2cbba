# Convenience targets for the repro library.

PYTHON ?= python

.PHONY: install test bench report examples lint lint-clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_simulator_throughput.py --benchmark-only
	PYTHONPATH=src $(PYTHON) benchmarks/bench_lint.py -o BENCH_lint.json
	PYTHONPATH=src $(PYTHON) benchmarks/bench_serving_load.py -o BENCH_serving_load.json

report:
	$(PYTHON) -m repro report -o report.md

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex || exit 1; done

lint:
	PYTHONPATH=src $(PYTHON) -m repro lint

lint-clean:
	rm -rf .analysis-cache
