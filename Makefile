# C-Saw reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test analyze bench report examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest tests/

# Determinism analyzer (DESIGN.md §7): per-file CSL rules plus call
# graph, worker reachability and CSA rules in one pass, enforced at an
# empty baseline; fails on any finding.
analyze:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m repro.devtools.analyze src

bench:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest benchmarks/ --benchmark-only

report: bench
	$(PYTHON) -m repro.cli report > EXPERIMENT_REPORT.md
	@echo "wrote EXPERIMENT_REPORT.md"

examples:
	@for script in examples/*.py; do \
		echo "=== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

all: analyze test bench report

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
