# Developer entry points for the R-TOSS reproduction.
#
#   make test          tier-1 test suite (the roadmap verify command)
#   make test-archive  the same tier-1 command, run in a `git archive HEAD`
#                      export in a temporary directory (no .git: the suite
#                      must not need a checkout)
#   make test-engine   engine-focused suite: compiled plans, fused executor,
#                      sparse kernel + quantization property tests — run
#                      twice: with the native kernels, then pinned
#                      to the portable numpy path (REPRO_NO_NATIVE=1)
#   make lint          ruff check + format check + reprolint (what the CI lint
#                      job runs; reprolint is the project-aware AST linter in
#                      tools/reprolint — see docs/analysis.md)
#   make lint-baseline regenerate tools/reprolint/baseline.json from the
#                      current findings (accepted-debt workflow)
#   make smoke         end-to-end pipeline run from the example RunSpec
#                      (prune → quantize → compile → evaluate + artifact reload),
#                      then `repro engine` on tiny at batch 8: one pipeline
#                      run per R-TOSS variant, printing the measured speedup
#                      from pruning with its quartiles next to the modelled
#                      TX2 / 2080Ti figures (exits non-zero if either
#                      variant's output stops matching its model)
#   make serve-smoke   pipeline run + the artifact served under concurrent load
#                      through repro.serving (equivalence check + latency report)
#   make cluster-smoke the artifact served through the multi-process cluster
#                      (repro.serving.cluster, 2 workers; reuses the serve-smoke
#                      artifact when present, builds it otherwise; exits
#                      non-zero if cluster outputs diverge from sequential)
#   make gateway-smoke the artifact served over localhost TCP through the
#                      async gateway (repro.serving.gateway) and driven with
#                      the wire-level client; exits non-zero unless the wire
#                      results are bit-identical to in-process submits (the
#                      2-worker leg sends a submit_many longer than one burst
#                      frame and also checks it against the direct output)
#   make obs-smoke     observability end-to-end: a traced serve run exporting
#                      snapshot.json / metrics.prom / metrics.jsonl /
#                      trace.json (Chrome trace-event format), rendered once
#                      through `repro top`, plus a Prometheus dump via
#                      `repro metrics` (reuses the serve-smoke artifact);
#                      asserts the report and the exported series agree, and
#                      that a 2-worker fleet behind a gateway exports its
#                      repro_gateway_* / repro_cluster_* series too
#   make bench         the benchmarks/ half of `make test`, uncaptured: prints
#                      the regenerated paper figures/tables and the measured
#                      engine / gateway / observability rows (writes no file)
#   make bench-record  run the frozen repo benchmark (python3 -m bench
#                      --workload all, RECORD_RUNS untraced runs per workload
#                      from RECORD_SEED, plus one traced) and append one line —
#                      commit, host fingerprint, median + quartiles per metric
#                      and workload — to docs/perf/history.jsonl (~10 min)
#   make docs-check    docs hygiene: README exists, docs/ exists, every
#                      src/repro/* package is mentioned in the README module map,
#                      and every dotted repro.* name in README.md / docs/*.md
#                      resolves (tools/docs_names.py)

PYTHON ?= python
PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))
export PYTHONPATH

SMOKE_SPEC ?= examples/specs/tiny_rtoss3ep.json

.PHONY: test test-archive test-engine lint lint-baseline smoke serve-smoke cluster-smoke gateway-smoke obs-smoke bench bench-record docs-check

test:
	$(PYTHON) -m pytest -x -q

test-archive:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	git archive HEAD | tar -x -C "$$dir" && cd "$$dir" && \
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PYTHON) -m pytest -x -q

ENGINE_TESTS = tests/engine tests/test_quantization_properties.py

test-engine:
	$(PYTHON) -m pytest -x -q $(ENGINE_TESTS)
	REPRO_NO_NATIVE=1 $(PYTHON) -m pytest -x -q $(ENGINE_TESTS)

# Three passes, strictest scope last (see ruff.toml for the rationale):
#   1. repo-wide critical-correctness rules (E9/F63/F7/F82);
#   2. full pyflakes + pycodestyle-error set on the modern packages —
#      engine/, pipeline/, serving/cluster/, tools/ (grown from the original
#      three engine files; extend this list as packages are brought up);
#   3. formatter check on the packages written under it, plus the
#      project-aware reprolint pass (lock discipline, hot-path allocation,
#      fork safety — findings not in tools/reprolint/baseline.json fail).
# Without ruff (the build image has none) the ruff legs are skipped, loudly,
# and reprolint — stdlib-only — still runs.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then set -ex; \
		$(PYTHON) -m ruff check src tests benchmarks tools examples; \
		$(PYTHON) -m ruff check --select E4,E7,E9,F \
			src/repro/engine src/repro/obs src/repro/pipeline \
			src/repro/serving/cluster src/repro/serving/assembly.py tools; \
		$(PYTHON) -m ruff format --check src/repro/serving/cluster \
			src/repro/serving/assembly.py tools; \
	else echo "ruff not installed — ruff legs SKIPPED"; fi
	$(PYTHON) -m tools.reprolint src/repro tools

lint-baseline:
	$(PYTHON) -m tools.reprolint src/repro tools --write-baseline

smoke:
	$(PYTHON) -m repro.cli run --spec $(SMOKE_SPEC) --artifact artifacts/smoke.npz
	$(PYTHON) -m repro.cli engine --model tiny --batch 8 --image-size 64 --repeats 5

serve-smoke:
	$(PYTHON) -m repro.cli run --spec $(SMOKE_SPEC) --artifact artifacts/serve-smoke.npz --no-verify
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --requests 32 --concurrency 4

cluster-smoke:
	@test -f artifacts/serve-smoke.npz || \
		$(PYTHON) -m repro.cli run --spec $(SMOKE_SPEC) --artifact artifacts/serve-smoke.npz --no-verify
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --workers 2 --requests 24 --concurrency 4

gateway-smoke:
	@test -f artifacts/serve-smoke.npz || \
		$(PYTHON) -m repro.cli run --spec $(SMOKE_SPEC) --artifact artifacts/serve-smoke.npz --no-verify
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --requests 32 --concurrency 4 --gateway 127.0.0.1:0
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --workers 2 --requests 80 --concurrency 4 --gateway 127.0.0.1:0 \
		> artifacts/gateway-smoke.log; status=$$?; cat artifacts/gateway-smoke.log; test $$status -eq 0
	@grep -Eq 'in ([2-9]|[1-9][0-9]+) burst frames\): bit-identical OK' artifacts/gateway-smoke.log \
		|| { echo "gateway-smoke: the submit_many was not longer than one burst frame"; exit 1; }

obs-smoke:
	@test -f artifacts/serve-smoke.npz || \
		$(PYTHON) -m repro.cli run --spec $(SMOKE_SPEC) --artifact artifacts/serve-smoke.npz --no-verify
	rm -rf artifacts/obs-smoke artifacts/obs-smoke-fleet
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --requests 32 --concurrency 4 --obs artifacts/obs-smoke
	@test -f artifacts/obs-smoke/trace.json || { echo "obs-smoke: trace.json was not exported"; exit 1; }
	@$(PYTHON) -c 'import json; snap = json.load(open("artifacts/obs-smoke/snapshot.json")); \
		series = [v for k, v in snap["metrics"].items() \
		          if k.startswith("repro_serving_requests_total{outcome=\"completed\"")]; \
		assert series == [snap["report"]["requests"]["completed"]] != [0], (series, snap["report"]["requests"])' \
		|| { echo "obs-smoke: report.requests.completed is not the exported repro_serving_requests_total series"; exit 1; }
	$(PYTHON) -m repro.cli top --obs artifacts/obs-smoke --once
	$(PYTHON) -m repro.cli metrics --artifact artifacts/serve-smoke.npz --requests 16 --format prom | grep -q '^repro_serving_requests_total' \
		|| { echo "obs-smoke: Prometheus export is missing repro_serving_requests_total"; exit 1; }
	$(PYTHON) -m repro.cli serve --artifact artifacts/serve-smoke.npz --workers 2 --requests 32 --concurrency 4 \
		--gateway 127.0.0.1:0 --obs artifacts/obs-smoke-fleet
	@for series in repro_gateway_requests_total repro_cluster_requests_total; do \
		grep -q "^$$series" artifacts/obs-smoke-fleet/metrics.prom \
			|| { echo "obs-smoke: the fleet export is missing $$series"; exit 1; }; done

bench:
	$(PYTHON) -m pytest benchmarks -q -s

RECORD_RUNS ?= 3
RECORD_SEED ?= 0
RECORD_LABEL ?=

bench-record:
	$(PYTHON) tools/bench_record.py --runs $(RECORD_RUNS) --seed $(RECORD_SEED) --label "$(RECORD_LABEL)"

docs-check:
	@test -f README.md || { echo "docs-check: README.md is missing"; exit 1; }
	@test -f docs/architecture.md || { echo "docs-check: docs/architecture.md is missing"; exit 1; }
	@test -f docs/engine.md || { echo "docs-check: docs/engine.md is missing"; exit 1; }
	@test -f docs/pipeline.md || { echo "docs-check: docs/pipeline.md is missing"; exit 1; }
	@test -f docs/serving.md || { echo "docs-check: docs/serving.md is missing"; exit 1; }
	@test -f docs/gateway.md || { echo "docs-check: docs/gateway.md is missing"; exit 1; }
	@test -f docs/cluster.md || { echo "docs-check: docs/cluster.md is missing"; exit 1; }
	@test -f docs/resilience.md || { echo "docs-check: docs/resilience.md is missing"; exit 1; }
	@test -f docs/analysis.md || { echo "docs-check: docs/analysis.md is missing"; exit 1; }
	@test -f docs/observability.md || { echo "docs-check: docs/observability.md is missing"; exit 1; }
	@missing=0; \
	for pkg in src/repro/*/; do \
		name=$$(basename $$pkg); \
		case $$name in __pycache__) continue;; esac; \
		grep -q "repro\.$$name" README.md || { \
			echo "docs-check: package repro.$$name is not mentioned in the README module map"; \
			missing=1; }; \
	done; \
	test $$missing -eq 0
	@$(PYTHON) -m tools.docs_names
	@echo "docs-check: OK"
