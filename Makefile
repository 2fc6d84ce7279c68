# Convenience targets for the Tetris reproduction.

PYTHON ?= python

.PHONY: install test bench serve sweep figures examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Streaming scheduler daemon over a generated trace (see docs/serving.md).
serve:
	$(PYTHON) -m repro generate --kind facebook --jobs 60 --horizon 1500 \
		--seed 7 -o serve-trace.json
	$(PYTHON) -m repro serve serve-trace.json --machines 20 \
		--json serve-report.json
	@echo "wrote serve-report.json"

# Parallel scheduler-comparison sweep over a generated workload.
# WORKERS controls the process pool (results are bit-identical to serial).
WORKERS ?= 4
sweep:
	$(PYTHON) -m repro generate --kind suite --jobs 30 --horizon 400 \
		--seed 1 -o sweep-trace.json
	$(PYTHON) -m repro compare sweep-trace.json --machines 20 \
		--schedulers tetris,slot-fair,drf,fifo --baseline fifo \
		--workers $(WORKERS) --json sweep-out.json
	@echo "wrote sweep-out.json"

figures:
	$(PYTHON) -m repro figures -o figures/

examples:
	@for f in examples/*.py; do \
		echo "== $$f"; \
		$(PYTHON) $$f || exit 1; \
	done

clean:
	rm -rf figures/ .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
