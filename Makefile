# Reproduction of "Policies for Swapping MPI Processes" (HPDC 2003).
# Standard library only; every target is plain `go` tooling.

GO ?= go

.PHONY: all build vet lint test race bench bench-transport bench-all bench-smoke figures ablations extensions figures-check check fuzz clean

all: build vet lint test

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite, listing them.
vet:
	$(GO) vet ./...
	@UNFORMATTED=$$(gofmt -l .); if [ -n "$$UNFORMATTED" ]; then \
		echo "gofmt: not formatted:"; echo "$$UNFORMATTED"; exit 1; \
	fi

# Project-specific static analysis (cmd/swapvet) of every non-test file:
# determinism of the simulation/figure packages, lock/I-O discipline,
# conn deadlines, and unchecked MPI errors. Exits non-zero on any
# finding. DESIGN.md §11 documents each rule; suppress intentional cases
# with //swapvet:ignore.
lint:
	$(GO) run ./cmd/swapvet ./...

# The concurrency-heavy packages (transport, runtime, and swaprun, whose
# tests are the end-to-end smoke scenarios) and the policy core (whose
# allocation pins skip themselves under -race) run under the race
# detector as part of the default test target; the manager failover and
# lease hand-over tests twenty times over, because the race they guard
# (a renewal in flight across a release) showed once in a dozen runs, and
# so the shared-connection test, whose ranks contend for one write token
# differently every time.
test: race
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/mpi/wire/ ./internal/swaprt/ ./internal/apps/ ./internal/experiment/ ./internal/core/ \
		./cmd/swaprun/
	$(GO) test -race -count=20 -run 'Failover|Supervisor' ./internal/swaprt/
	$(GO) test -race -count=20 -run 'TestTCPSharedConnection' ./internal/mpi/

bench:
	$(GO) test -bench=. -benchmem ./...

# Zero-allocation gate on the TCP send hot path (DESIGN.md §15): the
# benchmark must report exactly 0 allocs/op, or the pooled wire encoder
# has regressed into per-send garbage. The Causal variant holds the same
# line with Lamport piggybacking on the wire and the flight recorder
# attached (DESIGN.md §17) — causal tracing is priced into the gate, not
# exempted from it. allocs/op is floor(all goroutines' allocations / N),
# so one allocation per received frame sits exactly on the boundary and
# reads non-zero in some runs only: that was the causal extension read
# into a local array that escaped (fixed in PR 19, pinned by
# wire.TestDecodeCausalFrameAllocations); a gate that fails now and then
# means a per-frame allocation is back. The awk gate matches the names
# with or without the GOMAXPROCS suffix (-N) and also fails if the
# benchmarks never ran (compile error, -run filter typo).
bench-transport:
	$(GO) test -run '^$$' -bench '^BenchmarkTCPSendDistinctRanks(Causal)?$$' \
		-benchmem -benchtime 5000x -count 3 . | tee /tmp/bench-transport.txt
	@awk ' \
		$$1 ~ /^BenchmarkTCPSendDistinctRanks(Causal)?(-[0-9]+)?$$/ { ran++; \
			if ($$7+0 != 0) { print "FAIL: " $$7 " allocs/op on the send hot path (want 0)"; bad=1 } } \
		END { if (ran < 6) { print "FAIL: expected 6 benchmark runs, saw " ran; exit 1 }; exit bad } \
	' /tmp/bench-transport.txt
	@echo "bench-transport: 0 allocs/op held (plain and causal+flight)"

# Aggregate benchmark evidence into one schema-stable artifact
# (results/BENCH_summary.json, uploaded by CI): fresh runs of the
# transport gate benchmarks, the policy-lens disabled-path benchmarks
# and the state codec (BenchmarkStateCodec/{4KiB,4KiB+struct,1MiB}: one
# checkpoint save + load, MB/s and allocations; benchagg holds the
# 4KiB+struct case, the shape bench/ registers, at 0 allocs/op, beside
# TestStateCodecAllocations, a plain test under `make test`) and the
# simulator (results/bench-sim.txt: Fig. 4 and Fig. 7 at quick size, what
# a cell pays before them — one stream seeded and read twelve times, one
# 32-host environment — one run of each technique over an environment
# built once (BenchmarkTechniqueRun/{none,swap,dlb,cr}), the kernel's
# event throughput, the policy decision with and without its explanation)
# and the transfer layer (appended to
# results/bench-transport.txt: BenchmarkTCPXfer/{16B,4KiB,1MiB}, a payload
# and its 8-byte ack through the mesh, beside BenchmarkLoopbackRaw, the
# same exchange on a bare socket; benchagg holds the 1 MiB transfer under
# 64 KiB/op — no staging buffer), folded together by cmd/benchagg,
# which re-applies the zero-alloc gate on the parsed rows — the transport
# send path and one kernel event — so the artifact cannot disagree with
# the gate that admitted it. The decision layer's flat-cost pair (results/bench-decide.txt: a LocalDecider decision over
# 256 and over 20,000 samples of history, and the lens auditing a 4+28
# boundary) is gated there too: 20k within 2x of 256. The same file
# carries one manager call over loopback TCP (BenchmarkRemoteDecideRoundTrip,
# ungated).
bench-all:
	mkdir -p results
	$(GO) test -run '^$$' -bench '^BenchmarkTCPSendDistinctRanks(Causal)?$$' \
		-benchmem -benchtime 5000x -count 3 . | tee results/bench-transport.txt
	$(GO) test -run '^$$' -bench '^Benchmark(TCPXfer|LoopbackRaw)$$' \
		-benchmem -benchtime 2000x -count 3 . | tee -a results/bench-transport.txt
	$(GO) test -run '^$$' -bench '^BenchmarkLens(Disabled|Nil)$$' \
		-benchmem -count 3 ./internal/swaprt/policylens/ | tee results/bench-lens.txt
	$(GO) test -run '^$$' -bench '^BenchmarkStateCodec$$' \
		-benchmem -count 3 . | tee results/bench-codec.txt
	$(GO) test -run '^$$' \
		-bench '^Benchmark(Fig4Techniques|Fig7Policies|StreamSeedDraw12|NewEnvironment32|KernelEventThroughput|PolicyDecide)$$' \
		-benchmem -count 3 . | tee results/bench-sim.txt
	$(GO) test -run '^$$' -bench '^BenchmarkTechniqueRun$$' \
		-benchmem -count 3 . | tee -a results/bench-sim.txt
	$(GO) test -run '^$$' -bench '^Benchmark(LocalDeciderDecide|LensObserveDecision)$$' \
		-benchmem -count 3 . | tee results/bench-decide.txt
	$(GO) test -run '^$$' -bench '^BenchmarkRemoteDecideRoundTrip$$' \
		-benchmem -count 3 . | tee -a results/bench-decide.txt
	$(GO) run ./cmd/benchagg -out results/BENCH_summary.json \
		-zero-alloc '^Benchmark(TCPSendDistinctRanks(Causal)?|KernelEventThroughput)$$' \
		results/bench-transport.txt results/bench-lens.txt results/bench-codec.txt \
		results/bench-sim.txt results/bench-decide.txt
	@echo "bench-all: wrote results/BENCH_summary.json"

# The swap-cost benchmark harness (bench/, BENCHMARK.json) at toy sizes:
# every workload runs a few operations and checks its outputs, so an API
# sweep that breaks bench/adapter.go or a workload's correctness oracle
# fails CI instead of the next benchmark run.
bench-smoke:
	$(GO) run ./bench -smoke

# Regenerate every figure / ablation / extension into results/ as CSV.
figures:
	$(GO) run ./cmd/swapexp -fig all -out results -format csv

ablations:
	$(GO) run ./cmd/swapexp -fig ablations -out results -format csv

extensions:
	$(GO) run ./cmd/swapexp -fig extensions -out results -format csv

# Byte-identity of the committed figure data: regenerate every figure,
# ablation and extension into a temporary directory and cmp each CSV
# against results/. A simulator change that moves one digit of one cell
# (or adds or drops a file) fails here, by name.
figures-check:
	@TMP=$$(mktemp -d); trap 'rm -rf "$$TMP"' EXIT; \
	for set in all ablations extensions; do \
		$(GO) run ./cmd/swapexp -fig $$set -out "$$TMP" -format csv >/dev/null || exit 1; \
	done; \
	if [ "$$(cd "$$TMP" && ls *.csv)" != "$$(cd results && ls *.csv)" ]; then \
		echo "figures-check: FAIL - regenerated file set differs from results/*.csv"; exit 1; \
	fi; \
	BAD=0; for f in results/*.csv; do \
		cmp "$$f" "$$TMP/$$(basename $$f)" || BAD=1; \
	done; \
	if [ $$BAD -ne 0 ]; then echo "figures-check: FAIL - regenerated CSVs differ from results/"; exit 1; fi; \
	echo "figures-check: $$(ls results/*.csv | wc -l) CSVs byte-identical to results/"

# Verify the paper's claims against freshly generated figures; the static
# analyzers run first so a non-reproducible tree cannot "pass" the check,
# and the committed CSVs must still be what the simulator produces.
check: lint figures-check
	$(GO) run ./cmd/swapexp -check

fuzz:
	$(GO) test -fuzz FuzzParseTraceCSV -fuzztime 30s ./internal/loadgen/
	$(GO) test -fuzz FuzzUnpackParts -fuzztime 30s ./internal/mpi/
	$(GO) test -fuzz FuzzUnpackFloats -fuzztime 30s ./internal/mpi/
	$(GO) test -fuzz FuzzDecode -fuzztime 30s ./internal/mpi/wire/
	$(GO) test -fuzz FuzzServeManagerRequest -fuzztime 30s ./internal/swaprt/
	$(GO) test -fuzz FuzzStateDecode -fuzztime 30s ./internal/swaprt/
	$(GO) test -fuzz FuzzPlanCommitDecode -fuzztime 30s ./internal/swaprt/
	$(GO) test -fuzz FuzzStoreOpen -fuzztime 30s ./internal/swaprt/mgrstore/
	$(GO) test -fuzz FuzzHistory -fuzztime 30s ./internal/predict/
	$(GO) test -fuzz FuzzSourceMatchesMathRand -fuzztime 30s ./internal/rng/

# clean removes generated result files only. It must not touch the Go
# build/test caches (or anything under ~/.cache): CI restores and reuses
# them across runs, keyed on go.sum, and `make lint` relies on the build
# cache to keep swapvet compilation cheap.
clean:
	rm -rf results/*.csv results/*.txt results/*.json
