# Developer workflow for the Choir reproduction.
#
#   make lint          repo-specific AST rules (R001-R013) + ruff, if installed
#   make analyze       the AST dataflow engine alone, with a JSON findings report
#   make typecheck     mypy per the gradual-strictness table in pyproject.toml
#   make test          the tier-1 suite (includes the static-analysis gate)
#   make soak          full-length server soak (bounded-memory proof)
#   make check         all of the above
#   make ci            what .github/workflows/ci.yml runs, locally
#   make campaign      scaled capacity sweep (Choir vs standard LoRa) with
#                      the ordering assertion -- what the CI campaign job runs
#   make bench-gateway streaming-gateway throughput -> BENCH_gateway.json
#   make bench-decode  per-packet decode latency vs SF/users -> $(BENCH_DECODE_OUT)
#   make bench-cascade tiered vs full decode on a mixed workload -> $(BENCH_CASCADE_OUT)
#   make bench-capacity capacity sweep baseline -> $(BENCH_CAPACITY_OUT)
#   make bench-check   regression gate vs the committed BENCH_decode.json (+-25%)
#   make bench-profile profiled gateway run -> run manifest + collapsed stacks
#   make profile-check `repro diff` gate vs the committed BENCH_profile.json
#   make bench-smoke   repo benchmark self-test + one rep of two gateway
#                      workloads (catches a moved entry point bench/ wraps)
#
# Benchmark knobs (CI overrides these so it never rewrites the committed
# baseline and gets extra slack for shared-runner jitter):
#   BENCH_DECODE_OUT   where bench-decode writes its report
#   BENCH_CASCADE_OUT  where bench-cascade writes its report
#   BENCH_CAPACITY_OUT where bench-capacity writes its report
#   BENCH_BASELINE     baseline bench-check gates against
#   BENCH_CANDIDATE    pre-recorded report to gate (empty = re-run fresh)
#   BENCH_TOLERANCE    allowed fractional slowdown (0.25 = +-25%)
#   BENCH_SLACK        absolute grace in seconds on top of the tolerance
#   BENCH_PROFILE_OUT  where bench-profile writes the run manifest
#   BENCH_STACKS_OUT   where bench-profile writes the collapsed stacks
#   PROFILE_BASELINE   manifest profile-check diffs against
#   PROFILE_CANDIDATE  candidate manifest profile-check gates
#   PROFILE_TOLERANCE  allowed fractional drift per metric (wall times are
#                      machine-dependent, so this is deliberately wide)
#   PROFILE_SLACK      absolute grace on top of the tolerance
#   BENCH_SMOKE_OUT    where bench-smoke writes the bench/run.py results
#
# Campaign knobs (defaults are the CI scale; the committed scenario's own
# sweep section is the full 100/300/1000-node campaign):
#   CAMPAIGN_SCENARIO  scenario file the sweep loads
#   CAMPAIGN_NODES     node counts swept
#   CAMPAIGN_DURATION  simulated air seconds per sweep point

PYTHON   ?= python
PYTHONPATH := src

BENCH_DECODE_OUT ?= BENCH_decode.json
BENCH_CASCADE_OUT ?= BENCH_cascade.json
BENCH_CAPACITY_OUT ?= BENCH_capacity.json
BENCH_BASELINE   ?= BENCH_decode.json
BENCH_CANDIDATE  ?=
BENCH_TOLERANCE  ?= 0.25
BENCH_SLACK      ?= 0.002

BENCH_PROFILE_OUT ?= BENCH_profile.json
BENCH_STACKS_OUT  ?= profile_stacks.txt
PROFILE_BASELINE  ?= BENCH_profile.json
PROFILE_CANDIDATE ?= BENCH_profile.ci.json
PROFILE_TOLERANCE ?= 3.0
PROFILE_SLACK     ?= 0.05

CAMPAIGN_SCENARIO ?= scenarios/eu868_urban.yaml
CAMPAIGN_NODES    ?= 50 200 800
CAMPAIGN_DURATION ?= 10
CAMPAIGN_JSON     ?= capacity_curve.json
CAMPAIGN_CSV      ?= capacity_curve.csv
CAMPAIGN_MANIFEST ?= campaign_manifest.json
CAMPAIGN_STACKS   ?= campaign_stacks.txt

ANALYZE_OUT ?= analysis_findings.json

BENCH_SMOKE_OUT ?= .bench_out/smoke.json

.PHONY: lint analyze typecheck test soak check ci campaign bench-gateway bench-decode bench-cascade bench-capacity bench-check bench-profile profile-check bench-smoke

lint:
	$(PYTHON) tools/repro_lint.py --engine=ast src tools
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools; \
	else \
		echo "ruff not installed (pip install -e '.[lint]'); skipping"; \
	fi

# Concurrency & determinism audit (DESIGN.md Sec. 14): rules R001-R013
# over the source tree, findings also written as a JSON artifact.
analyze:
	$(PYTHON) tools/repro_lint.py --engine=ast --json $(ANALYZE_OUT) src tools

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "mypy not installed (pip install -e '.[lint]'); skipping"; \
	fi

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The tier-1 suite runs a scaled-down version of this; SOAK=1 runs the
# full-length stream (50x) and the telemetry-cardinality check.
soak:
	SOAK=1 PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/server/test_soak_server.py -q

check: lint typecheck test

# Mirror of the CI workflow: the same gates, the same benchmark flow
# (fresh candidate report compared against the committed baseline with
# runner slack), without touching BENCH_decode.json.
ci:
	$(MAKE) lint
	$(MAKE) analyze
	$(MAKE) typecheck
	$(MAKE) test
	CI=1 $(MAKE) bench-decode BENCH_DECODE_OUT=BENCH_decode.ci.json
	$(MAKE) bench-check BENCH_CANDIDATE=BENCH_decode.ci.json BENCH_SLACK=0.05
	CI=1 $(MAKE) bench-cascade BENCH_CASCADE_OUT=BENCH_cascade.ci.json
	$(MAKE) bench-check BENCH_BASELINE=BENCH_cascade.json BENCH_CANDIDATE=BENCH_cascade.ci.json BENCH_SLACK=0.05
	$(MAKE) campaign
	CI=1 $(MAKE) bench-capacity BENCH_CAPACITY_OUT=BENCH_capacity.ci.json
	$(MAKE) bench-check BENCH_BASELINE=BENCH_capacity.json BENCH_CANDIDATE=BENCH_capacity.ci.json BENCH_TOLERANCE=0.5 BENCH_SLACK=0.05
	CI=1 $(MAKE) bench-profile BENCH_PROFILE_OUT=BENCH_profile.ci.json BENCH_STACKS_OUT=profile_stacks.ci.txt
	$(MAKE) profile-check PROFILE_CANDIDATE=BENCH_profile.ci.json
	$(MAKE) bench-smoke

# The CI campaign job: scaled node-count sweep over the committed urban
# scenario, with the Choir-vs-standard capacity ordering asserted at
# every point (strictly above from 200 nodes on) and the curve written
# as plot-ready JSON + CSV artifacts, plus the sweep's run manifest and
# collapsed kernel stacks (where did the campaign's time go).
campaign:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro campaign \
		--scenario $(CAMPAIGN_SCENARIO) \
		--nodes $(CAMPAIGN_NODES) --duration $(CAMPAIGN_DURATION) \
		--json-out $(CAMPAIGN_JSON) --csv-out $(CAMPAIGN_CSV) \
		--profile-out $(CAMPAIGN_MANIFEST) --stacks-out $(CAMPAIGN_STACKS) \
		--assert-ordering

# The committed baseline is the 8-channel EU868 mixed-SF sharded run
# (the configuration the ROADMAP's realtime target is stated against).
bench-gateway:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_report.py \
		--channels 8 --sf-set 7,8 --nodes 8 --duration 1.0 --workers 2 \
		--out BENCH_gateway.json

bench-decode:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_decode.py --out $(BENCH_DECODE_OUT)

bench-cascade:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_cascade.py --out $(BENCH_CASCADE_OUT)

bench-capacity:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_capacity.py --out $(BENCH_CAPACITY_OUT)

bench-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_report.py \
		--compare $(BENCH_BASELINE) --tolerance $(BENCH_TOLERANCE) \
		--slack $(BENCH_SLACK) \
		$(if $(BENCH_CANDIDATE),--candidate $(BENCH_CANDIDATE),)

# The committed BENCH_gateway.json config rerun with the kernel profiler
# on: writes the diffable run manifest plus flamegraph-ready collapsed
# stacks.  The bench report itself goes to a scratch file so the
# committed unprofiled baseline is never overwritten.
bench-profile:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) tools/bench_report.py \
		--channels 8 --sf-set 7,8 --nodes 8 --duration 1.0 --workers 2 \
		--out BENCH_gateway.profiled.json \
		--profile-out $(BENCH_PROFILE_OUT) --stacks-out $(BENCH_STACKS_OUT)

# Diff a fresh manifest against the committed BENCH_profile.json.
# Strict mode: a kernel disappearing from the table (instrumentation
# silently dropped) fails the gate just like a slowdown; the wide
# tolerance absorbs machine-speed differences on wall metrics.
profile-check:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro diff \
		$(PROFILE_BASELINE) $(PROFILE_CANDIDATE) \
		--tolerance $(PROFILE_TOLERANCE) --slack $(PROFILE_SLACK) \
		--assert-no-regression

# The repo benchmark (bench/, BENCHMARK.json) at smoke size: its own
# self-test, then one rep (plus the traced run) of the single-channel
# collision and 8-channel mixed-SF workloads.  Fails when a refactor
# moves or renames an entry point the harness wraps.
bench-smoke:
	$(PYTHON) -m pytest bench/tests -q
	python3 bench/run.py --workload gw_collide_sf7 --workload gw_eu868_mixed \
		--reps 1 --out $(BENCH_SMOKE_OUT)
