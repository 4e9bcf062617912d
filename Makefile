GO ?= go

.PHONY: all build test ridbench-check race fuzz-smoke bench bench-json bench-diff profile check fmt vet serve experiments report clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# ridbench is a separate module (replace repro => ../) that the root ./...
# does not cover; vet and test it so an internal API break shows up here.
ridbench-check:
	$(GO) -C ridbench vet ./...
	$(GO) -C ridbench test ./...

race:
	$(GO) test -race ./internal/obs/ ./internal/diffusion/ ./internal/core/ ./internal/cascade/ ./internal/arbor/ ./internal/isomit/ ./internal/sgraph/ ./internal/par/ ./internal/experiment/ ./internal/ingest/ ./internal/trace/ ./internal/server/ ./internal/profiling/ .

# fuzz-smoke runs the arbor kernel-equivalence fuzzer, the ISOMIT tree-solver
# fuzzer (every DP against its brute-force oracle), the two trace decoder
# fuzzers, the RIDG snapshot decoder fuzzer and the W3C traceparent decoder
# fuzzer briefly; CI does the same.
# Longer local runs: go test -fuzz FuzzTraceDecode ./internal/trace/
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKernelEquivalence$$' -fuzztime 10s ./internal/arbor/
	$(GO) test -run '^$$' -fuzz '^FuzzTreeSolvers$$' -fuzztime 5s ./internal/isomit/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceDecode$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzSnapshotRead$$' -fuzztime 5s ./internal/sgraph/
	$(GO) test -run '^$$' -fuzz '^FuzzTraceparent$$' -fuzztime 5s ./internal/obs/

bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# bench-json runs the headline benchmarks at -cpu 1 and 4 and writes
# BENCH_pr10.json with ns/op, B/op, allocs/op per width plus the measured
# parallel speedup, the arbor kernel comparison, the incremental-vs-full
# detect comparison, the batch-vs-sequential serving comparison, the
# snapshot warm-load benchmarks and the profiler on/off overhead pair.
bench-json:
	./scripts/bench_json.sh

# bench-diff compares two bench-json snapshots on ns/op and fails if any
# benchmark slowed past BENCH_DIFF_THRESHOLD percent (default 10), or if a
# baseline benchmark is missing from the
# current run, so a renamed or silently dropped benchmark also fails. Override
# the files: make bench-diff BENCH_OLD=BENCH_pr9.json BENCH_NEW=BENCH_pr10.json
BENCH_OLD ?= BENCH_pr10.json
BENCH_NEW ?= BENCH_new.json
bench-diff:
	./scripts/bench_diff.sh $(BENCH_OLD) $(BENCH_NEW)

# profile runs the end-to-end detect benchmark under the CPU profiler and
# prints the hottest functions.
profile:
	$(GO) test -bench=BenchmarkRIDEndToEnd -benchtime 5x -cpuprofile cpu.prof -o rid.test .
	$(GO) tool pprof -top -nodecount 15 rid.test cpu.prof

check: fmt vet test ridbench-check

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

serve:
	$(GO) run ./cmd/ridserve

experiments:
	$(GO) run ./cmd/experiments

report:
	$(GO) run ./cmd/experiments -md report.md -csv csv-out

clean:
	rm -rf csv-out report.md test_output.txt bench_output.txt cpu.prof rid.test
