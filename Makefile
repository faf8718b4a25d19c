# Developer entry points. CI runs the same targets (.github/workflows/ci.yml),
# so a green `make check bench-guard trace-smoke` locally predicts a green CI.

GO ?= go

# Benchmarks settle with one iteration and a few samples; benchguard
# reduces the samples with min, so more -count buys stability, not time.
BENCH_COUNT ?= 3
BENCH_STRIDE ?= 20

TMP := $(shell mktemp -d 2>/dev/null || echo /tmp)

.PHONY: all build test race vet check staticgate bench bench-json bench-guard pipeline-guard incremental-bench incremental-guard trace-smoke clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet test

# Static-analysis gate: fail on any file gofmt would change, vet
# everything, run staticcheck when the host has it (CI images without it
# skip, loudly), and race-test the lint oracles — the interval domain,
# the interprocedural engine both oracles share (internal/overflow) and
# the integer oracle, the analysis passes most sensitive to shared
# snapshot state.
staticgate:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "staticgate: gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticgate: staticcheck not installed; skipping (go vet still ran)"; \
	fi
	$(GO) test -race ./internal/interval/... ./internal/overflow/... ./internal/intflow/...

# Per-stage benchmark baseline: parse-only, snapshot-warm, SLR-only,
# STR-only, the no-tracer pipeline, and the traced pipeline. One
# iteration, $(BENCH_COUNT) samples each — fast enough to run on every
# change, stable enough to compare runs.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkPipelineStages|BenchmarkObsOverhead|BenchmarkTraceAttached' \
		-benchtime=1x -count=$(BENCH_COUNT) .

# Machine-readable per-stage pipeline report over the SAMATE corpus
# (BENCH_pipeline.json; uploaded as a CI artifact).
bench-json:
	$(GO) run ./cmd/experiments -bench-json BENCH_pipeline.json -stride $(BENCH_STRIDE)

# Observability overhead gate: the default build's no-tracer path may
# not cost more than 2% over a build with tracing compiled out
# (-tags cfix_notrace). benchguard compares per-benchmark minima.
bench-guard:
	$(GO) test -run '^$$' -bench '^BenchmarkObsOverhead$$' -benchtime=50x -count=7 . > $(TMP)/bench_default.txt
	$(GO) test -tags cfix_notrace -run '^$$' -bench '^BenchmarkObsOverhead$$' -benchtime=50x -count=7 . > $(TMP)/bench_notrace.txt
	$(GO) run ./cmd/benchguard -max-pct 2 $(TMP)/bench_default.txt $(TMP)/bench_notrace.txt

# Integer-oracle share gate: BENCH_pipeline.json (from bench-json) must
# carry a supplementary intflow measurement, and the disabled oracle may
# not cost the default pipeline more than 2% of its self time (it
# should cost exactly 0: the gate trips if the default fix path ever
# starts running it).
pipeline-guard:
	$(GO) run ./cmd/benchguard -pipeline BENCH_pipeline.json -stage intflow -max-share-pct 2 -require

# Incremental latency report: warm per-edit re-analysis percentiles
# measured through the real cfixlsp JSON-RPC loop
# (BENCH_incremental.json; uploaded as a CI artifact).
incremental-bench:
	$(GO) run ./cmd/cfixlsp -bench 200 -bench-funcs 24 -bench-out BENCH_incremental.json
	cat BENCH_incremental.json

# Incremental latency gate: the warm re-analysis median (one didChange
# to publishDiagnostics round trip) must stay under 10ms.
incremental-guard:
	$(GO) run ./cmd/benchguard -incremental BENCH_incremental.json -max-warm-p50-ms 10

# Trace smoke: harden a generated SAMATE sample with -trace/-stage-stats
# and validate the Chrome trace with the CI checker.
trace-smoke:
	$(GO) build -o $(TMP)/cfix ./cmd/cfix
	$(GO) build -o $(TMP)/tracecheck ./cmd/tracecheck
	$(GO) build -o $(TMP)/samategen ./cmd/samategen
	$(TMP)/samategen -out $(TMP)/corpus -cwe 121 -n 10
	$(TMP)/cfix -stage-stats -trace $(TMP)/trace.json -outdir $(TMP)/fixed $(TMP)/corpus/CWE121 2>$(TMP)/cfix.log
	$(TMP)/tracecheck -min-stages 10 -min-events 100 $(TMP)/trace.json

clean:
	rm -f BENCH_pipeline.json BENCH_incremental.json
