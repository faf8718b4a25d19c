# Developer entry points. CI runs the same targets (.github/workflows/ci.yml),
# so a green `make check trace-smoke` locally predicts a green CI.

GO ?= go

# Benchmarks settle with one iteration and a few samples.
BENCH_COUNT ?= 3

.PHONY: all build test race vet check staticgate bench trace-smoke

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

# Trace smoke: harden a generated SAMATE sample with -trace/-stage-stats
# and validate the Chrome trace with the CI checker, all inside a
# temporary directory the recipe removes.
trace-smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/cfix" ./cmd/cfix && \
	$(GO) build -o "$$tmp/tracecheck" ./cmd/tracecheck && \
	$(GO) build -o "$$tmp/samategen" ./cmd/samategen && \
	"$$tmp/samategen" -out "$$tmp/corpus" -cwe 121 -n 10 && \
	"$$tmp/cfix" -stage-stats -trace "$$tmp/trace.json" -outdir "$$tmp/fixed" "$$tmp/corpus/CWE121" 2>"$$tmp/cfix.log" && \
	"$$tmp/tracecheck" -min-stages 10 -min-events 100 "$$tmp/trace.json"
