# Tier-1 verification and benchmark harness.

GO ?= go

.PHONY: all build test vet race check bench bench-fft obs-bench trace-smoke campaign-smoke campaign-smoke-update bistd-smoke telemetry-smoke cover fuzz-smoke golden-update

# Committed coverage floor (percent of statements): `make cover` fails when
# total coverage drops below this.
COVER_FLOOR ?= 85.0

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race exercises the par-pool paths (cost instants, sweeps, yield units)
# under the race detector.
race:
	$(GO) test -race ./...

# check is the CI gate: vet + race.
check: vet race

# bench runs every paper-artifact and kernel benchmark with allocation
# stats. The recorded end-to-end and per-layer ledger is perfbench
# (perfbench/run.sh, declared in BENCHMARK.json).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# bench-fft covers the plan-based transform engine and the Welch estimator
# built on it; BenchmarkFFTPlan* must report 0 allocs/op in steady state.
bench-fft:
	$(GO) test -run='^$$' -benchmem \
		-bench='BenchmarkFFTPlan1024$$|BenchmarkFFTPlan4096$$|BenchmarkFFTPlanOdd1000$$|BenchmarkWelch64k$$|BenchmarkWelchPSD$$|BenchmarkFFT4096$$' .

# obs-bench verifies the observability layer: concurrent counter/gauge/
# histogram correctness under the race detector, then the overhead
# benchmarks. The BenchmarkObsDisabled* rows are the contract with the LMS
# hot loop — they must report 0 allocs/op and ~1 ns/op or less for the
# counter (one atomic load).
obs-bench:
	$(GO) test -race ./internal/obs
	$(GO) test -run='^$$' -bench='BenchmarkObs' -benchmem ./internal/obs

# trace-smoke exercises the hierarchical trace pipeline end to end: a
# reduced Fig. 6 run through the real CLI with both exporters on, the
# Chrome JSON checked for well-formedness, and the normalized span tree
# compared byte-for-byte against the committed golden. The structural
# tests then re-check the same surface in-process (worker-count
# invariance, Perfetto event layout, embedded provenance).
trace-smoke:
	$(GO) run ./cmd/bistlab fig6 -scale 0.25 \
		-trace trace_smoke.trace.json -trace-normalized trace_smoke.norm.json > /dev/null
	python3 -m json.tool trace_smoke.trace.json > /dev/null
	cmp trace_smoke.norm.json cmd/bistlab/testdata/golden/fig6_trace_normalized.json
	$(GO) test ./cmd/bistlab -run 'TestFig6NormalizedTraceGolden|TestMaskChromeTraceStructure|TestTraceToStdout|TestManifestFlag'
	@rm -f trace_smoke.trace.json trace_smoke.norm.json
	@echo "trace smoke OK"

# campaign-smoke drives a tiny stimulus-coverage campaign end to end
# through the real CLI (the flags-only `-campaign` shorthand) and compares
# the detection matrix byte-for-byte against the committed golden; the
# campaign test suite then re-checks the determinism contract in-process
# (worker-count and row-order invariance, known-escape pinning).
campaign-smoke:
	$(GO) run ./cmd/bistlab -campaign cmd/bistlab/testdata/campaign_smoke_grid.json -json \
		| cmp - cmd/bistlab/testdata/golden/campaign_smoke.json
	$(GO) test ./internal/campaign ./cmd/bistlab -run 'Campaign|Coverage'
	@echo "campaign smoke OK"

# bistd-smoke boots the fleet daemon on an ephemeral port, runs the
# committed smoke campaign through its HTTP surface with bistd's own
# client mode, and compares the served detection matrix byte-for-byte
# against the campaign golden: the service path must reproduce exactly
# what the in-process CLI produces. The daemon is then stopped with
# SIGTERM to exercise the graceful drain.
bistd-smoke:
	@set -e; \
	$(GO) build -o .bistd_smoke.bin ./cmd/bistd; \
	rm -rf .bistd_smoke.addr .bistd_smoke_ckpt; \
	./.bistd_smoke.bin -addr 127.0.0.1:0 -addr-file .bistd_smoke.addr -checkpoint-dir .bistd_smoke_ckpt & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf .bistd_smoke.bin .bistd_smoke.addr .bistd_smoke_ckpt' EXIT; \
	for i in $$(seq 1 100); do [ -s .bistd_smoke.addr ] && break; sleep 0.1; done; \
	[ -s .bistd_smoke.addr ] || { echo "bistd-smoke: daemon did not come up"; exit 1; }; \
	addr=$$(cat .bistd_smoke.addr); \
	./.bistd_smoke.bin -submit cmd/bistlab/testdata/campaign_smoke_grid.json \
		-server "http://$$addr" -quiet \
		| cmp - cmd/bistlab/testdata/golden/campaign_smoke.json; \
	kill -TERM $$pid; wait $$pid; \
	echo "bistd smoke OK"

# telemetry-smoke boots the daemon with the watchdog and the canonical
# JSON event log, runs the committed smoke campaign over HTTP, and
# asserts the whole telemetry surface end to end: the per-campaign SLO
# report, the Prometheus exposition (parsed line by line, required fleet
# families present), and the /healthz verdict. After the SIGTERM drain it
# re-checks that every event-log line the daemon wrote is valid JSON —
# the canonical-handler contract a log collector depends on.
telemetry-smoke:
	@set -e; \
	$(GO) build -o .telemetry_smoke.bin ./cmd/bistd; \
	rm -rf .telemetry_smoke.addr .telemetry_smoke_ckpt .telemetry_smoke.log; \
	./.telemetry_smoke.bin -addr 127.0.0.1:0 -addr-file .telemetry_smoke.addr \
		-checkpoint-dir .telemetry_smoke_ckpt -log-json -watchdog-interval 50ms \
		2> .telemetry_smoke.log & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf .telemetry_smoke.bin .telemetry_smoke.addr .telemetry_smoke_ckpt .telemetry_smoke.log' EXIT; \
	for i in $$(seq 1 100); do [ -s .telemetry_smoke.addr ] && break; sleep 0.1; done; \
	[ -s .telemetry_smoke.addr ] || { echo "telemetry-smoke: daemon did not come up"; cat .telemetry_smoke.log; exit 1; }; \
	addr=$$(cat .telemetry_smoke.addr); \
	python3 scripts/telemetry_smoke.py "http://$$addr" cmd/bistlab/testdata/campaign_smoke_grid.json; \
	kill -TERM $$pid; wait $$pid || true; \
	python3 -c 'import json,sys; [json.loads(l) for l in open(".telemetry_smoke.log") if l.strip()]' \
		|| { echo "telemetry-smoke: event log is not line-delimited JSON"; cat .telemetry_smoke.log; exit 1; }; \
	echo "telemetry smoke OK"

# campaign-smoke-update regenerates the CLI campaign golden after an
# intended matrix change. Inspect the diff before committing.
campaign-smoke-update:
	$(GO) run ./cmd/bistlab -campaign cmd/bistlab/testdata/campaign_smoke_grid.json -json \
		> cmd/bistlab/testdata/golden/campaign_smoke.json
	@echo "campaign smoke golden regenerated"

# cover measures total statement coverage and fails below COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{sub(/%/, "", $$3); print $$3}'); \
	awk -v t=$$total -v f=$(COVER_FLOOR) 'BEGIN { \
		if (t + 0 < f + 0) { printf "FAIL: coverage %.1f%% below floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# fuzz-smoke runs each native fuzz target briefly beyond its seed corpus.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzFFTRoundtrip -fuzztime=10s ./internal/dsp
	$(GO) test -run='^$$' -fuzz=FuzzBluesteinVsRadix2 -fuzztime=10s ./internal/dsp
	$(GO) test -run='^$$' -fuzz=FuzzPlanVsDirect -fuzztime=10s ./internal/dsp
	$(GO) test -run='^$$' -fuzz=FuzzFIRLinearity -fuzztime=10s ./internal/dsp
	$(GO) test -run='^$$' -fuzz=FuzzDecimateVsFilter -fuzztime=10s ./internal/dsp
	$(GO) test -run='^$$' -fuzz=FuzzReconstructRetune -fuzztime=10s ./internal/pnbs
	$(GO) test -run='^$$' -fuzz=FuzzCostFusedVsSerial -fuzztime=10s ./internal/skew
	$(GO) test -run='^$$' -fuzz=FuzzStimulusSpecRoundTrip -fuzztime=10s ./internal/campaign
	$(GO) test -run='^$$' -fuzz=FuzzParseShard -fuzztime=10s ./internal/fleet

# golden-update regenerates the committed golden vectors after an intended
# numeric change. Inspect the diff before committing.
golden-update:
	$(GO) test ./internal/experiments -run Golden -update
