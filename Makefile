# Reproduction of "Policies for Swapping MPI Processes" (HPDC 2003).
# Standard library only; every target is plain `go` tooling.

GO ?= go

.PHONY: all build vet lint test race bench bench-transport bench-all bench-smoke figures ablations extensions figures-check check fuzz trace-smoke chaos-smoke mon-smoke postmortem-smoke failover-smoke lens-smoke smoke-timing clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (cmd/swapvet): determinism of the
# simulation/figure packages, lock/I-O discipline, conn deadlines, and
# unchecked MPI errors. Exits non-zero on any finding. DESIGN.md §11
# documents each rule; suppress intentional cases with //swapvet:ignore.
lint:
	$(GO) run ./cmd/swapvet ./...

# The concurrency-heavy packages (transport, runtime) run under the race
# detector as part of the default test target; the manager failover and
# lease hand-over tests twenty times over, because the race they guard
# (a renewal in flight across a release) showed once in a dozen runs, and
# so the shared-connection test, whose ranks contend for one write token
# differently every time.
test: race
	$(GO) test ./...

race:
	$(GO) test -race ./internal/mpi/ ./internal/mpi/wire/ ./internal/swaprt/ ./internal/apps/ ./internal/experiment/
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
# boundary) is gated there too: 20k within 2x of 256.
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

# End-to-end trace validation: a 2-rank live run with an injected
# slowdown that forces a swap, exported as a Chrome/Perfetto trace, then
# checked by cmd/tracecheck (trace_event schema, one timeline, a
# SwapDecision with payback distance and policy verdict). The live leg
# runs accelerated with the lens armed, so the timeline check sees rank,
# lens and MPI events of a run whose virtual clock is not the wall clock.
# A virtual-clock simulation trace is validated the same way.
trace-smoke:
	mkdir -p results
	$(GO) run ./cmd/swaprun -ranks 2 -active 1 -iters 20 -work 10 \
		-inject 0@0.05:8 -accel 10 -lens \
		-trace-out results/trace-smoke-live.json \
		-events-out results/trace-smoke-live.jsonl
	$(GO) run ./cmd/tracecheck results/trace-smoke-live.json
	$(GO) run ./cmd/swapsim -tech swap -hosts 6 -active 2 -iters 10 -seed 63 \
		-trace-out results/trace-smoke-sim.json
	$(GO) run ./cmd/tracecheck results/trace-smoke-sim.json

# Fault-injected end-to-end run (DESIGN.md §13): the fastest spare dies
# mid-run (its swap must abort and quarantine it), the decision service
# goes down for a window (the circuit breaker must open, probe, and
# close), and the run must still finish with the exact fault-free
# result — swaprun exits non-zero on a corrupted accumulator. tracecheck
# -chaos then requires the quarantine and circuit-recovery evidence in
# the exported trace.
#
# The run rides a 25x scaled clock (DESIGN.md §16): every wait — work
# spinning, injection delays, retry backoffs, transfer deadlines — is in
# virtual time, so the timeouts are generous in virtual units (2s per
# transfer leg) yet cost 1/25th of that on the wall.
chaos-smoke:
	mkdir -p results
	$(GO) run ./cmd/swaprun -ranks 3 -active 1 -iters 25 -work 5 \
		-inject '0@0.05:8,1@0:4' \
		-chaos 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' \
		-transfer-timeout 2s -accel 25 -trace-out results/trace-chaos.json
	$(GO) run ./cmd/tracecheck -chaos results/trace-chaos.json

# Live-monitoring smoke (DESIGN.md §14): a fault-injected run serves
# /metrics, /telemetry and /healthz on -debug-addr while swapmon -once
# polls the telemetry document until it shows at least one committed
# swap and one detected slowdown anomaly (or times out, failing the
# build). The chaos plan reuses the chaos-smoke shape so the report also
# carries quarantine and circuit-breaker state.
# The 5s-of-virtual-work schedule runs on a 10x scaled clock, so the
# monitored run lasts well under a second of wall time; swapmon polls
# every 50ms to catch the telemetry window.
mon-smoke:
	mkdir -p results
	$(GO) build -o results/mon-swaprun ./cmd/swaprun
	$(GO) build -o results/mon-swapmon ./cmd/swapmon
	./results/mon-swaprun -ranks 3 -active 1 -iters 1000 -work 5 \
		-inject '0@0.2:8,1@0:4' \
		-chaos 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' \
		-transfer-timeout 2s -accel 10 \
		-telemetry -debug-addr 127.0.0.1:7091 & \
	RUN_PID=$$!; \
	./results/mon-swapmon -addr 127.0.0.1:7091 -once -interval 50ms \
		-min-swaps 1 -min-anomalies 1 -timeout 60s; \
	STATUS=$$?; \
	kill $$RUN_PID 2>/dev/null; wait $$RUN_PID 2>/dev/null; \
	exit $$STATUS

# Post-mortem smoke (DESIGN.md §17): the chaos-smoke plan re-run with
# causal tracing and the flight recorder armed. The mid-run manager
# outage forces swap aborts; each abort dumps every rank's recent event
# window to results/flight/. The gate requires a dump per rank, then
# feeds the dumps to tracecheck -postmortem, which must merge them into
# one causally ordered cross-rank timeline whose validations pass and
# which contains the abort evidence (-require-abort).
postmortem-smoke:
	mkdir -p results/flight
	rm -f results/flight/flight-*.jsonl
	$(GO) run ./cmd/swaprun -ranks 3 -active 1 -iters 25 -work 5 \
		-inject '0@0.05:8,1@0:4' \
		-chaos 'seed=7;die:rank=2,iter=3;mgrdown:after=2,count=6' \
		-transfer-timeout 2s -accel 25 \
		-causal -flight-dir results/flight
	@for r in 0 1 2; do \
		if [ ! -s results/flight/flight-rank$$r.jsonl ]; then \
			echo "postmortem-smoke: FAIL - no flight dump for rank $$r"; exit 1; \
		fi; \
	done
	$(GO) run ./cmd/tracecheck -postmortem -require-abort results/flight

# Manager-failover smoke (DESIGN.md §18): a durable-store run where the
# chaos plan SIGKILLs the manager after its 4th call — mid two-phase
# swap, with a proposal already fsynced to the WAL — and restarts it
# 100ms (virtual) later. The run must finish with the exact fault-free
# result (swaprun exits non-zero on a corrupted accumulator), and
# tracecheck -failover requires the restart-recovery evidence in the
# trace: an MgrCrash, a later MgrRecover whose detail proves a non-empty
# WAL replay, decision epochs that never step backwards (epoch fencing),
# and decisions after the recovery. The injected slowdown guarantees a
# swap proposal lands in the WAL before the kill; the 250ms lease (in
# virtual time, on the 25x clock) keeps takeover fast.
failover-smoke:
	mkdir -p results
	rm -rf results/failover-store
	$(GO) run ./cmd/swaprun -ranks 4 -active 2 -iters 80 -work 20 \
		-inject '1@0.02:8' \
		-chaos 'seed=7;mgrrestart:after=4,downms=100' \
		-mgr-store results/failover-store -mgr-lease-ttl 250ms \
		-accel 25 -trace-out results/trace-failover.json
	$(GO) run ./cmd/tracecheck -failover results/trace-failover.json

# Policy-lens smoke (DESIGN.md §19): the observability loop end to end.
# First leg: the trace-smoke live shape re-run with -lens, exporting the
# JSONL event log — the lens must have armed a payback prediction at the
# forced swap, realized it, and replayed the shadow panel; tracecheck
# -audit replays the whole log offline and fails on any bookkeeping
# violation (committed swap without a realized payback, realization for
# an epoch that never committed, ok-verdict contradicting its own error).
# Second leg: the mon-smoke shape with -lens serving /telemetry while
# swapmon -once gates on the lens panel itself (-min-shadow 1 proves the
# shadow scoreboard is live alongside the committed swap).
lens-smoke:
	mkdir -p results
	$(GO) run ./cmd/swaprun -ranks 2 -active 1 -iters 20 -work 10 \
		-inject 0@0.05:8 -lens -events-out results/lens-events.jsonl
	$(GO) run ./cmd/tracecheck -audit results/lens-events.jsonl
	$(GO) build -o results/lens-swaprun ./cmd/swaprun
	$(GO) build -o results/lens-swapmon ./cmd/swapmon
	./results/lens-swaprun -ranks 3 -active 1 -iters 1000 -work 5 \
		-inject '0@0.2:8,1@0:4' -accel 10 \
		-lens -telemetry -debug-addr 127.0.0.1:7093 & \
	RUN_PID=$$!; \
	./results/lens-swapmon -addr 127.0.0.1:7093 -once -interval 50ms \
		-min-swaps 1 -min-shadow 1 -timeout 60s; \
	STATUS=$$?; \
	kill $$RUN_PID 2>/dev/null; wait $$RUN_PID 2>/dev/null; \
	exit $$STATUS

# Wall-clock budget on the accelerated smokes (DESIGN.md §16): the
# fault-injected end-to-end gates plus the lens smoke together must
# finish inside 30s, so a regression that reintroduces real-time waits
# anywhere on their path (a bare sleep, an unscaled deadline) fails CI
# by timing alone.
smoke-timing:
	@START=$$(date +%s); \
	$(MAKE) chaos-smoke mon-smoke lens-smoke; STATUS=$$?; \
	END=$$(date +%s); ELAPSED=$$((END-START)); \
	echo "smoke-timing: chaos-smoke + mon-smoke + lens-smoke took $${ELAPSED}s (budget 30s)"; \
	if [ $$STATUS -ne 0 ]; then exit $$STATUS; fi; \
	if [ $$ELAPSED -gt 30 ]; then \
		echo "smoke-timing: FAIL - exceeded the 30s budget"; exit 1; \
	fi

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
	rm -rf results/*.csv results/*.txt results/*.json results/*.jsonl \
		results/flight results/failover-store results/mon-swaprun results/mon-swapmon \
		results/lens-swaprun results/lens-swapmon
