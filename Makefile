# C-Saw reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test lint analyze bench report examples all clean

install:
	pip install -e . --no-build-isolation || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m pytest tests/

# Determinism & purity linter (DESIGN.md §7); fails on any violation.
lint:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYTHON) -m repro.devtools.lint src

# Whole-program determinism analyzer (DESIGN.md §12): call graph +
# worker reachability + CSA rules, enforced at an empty baseline.
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

all: lint analyze test bench report

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
