# Reproduction of "Policies for Swapping MPI Processes" (HPDC 2003).
# Standard library only; every target is plain `go` tooling.

GO ?= go

.PHONY: all build vet lint test race bench bench-smoke figures ablations extensions check fuzz clean

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

# `go test ./...` holds every gate: figures byte for byte, goldens, and
# the cost gates beside the code they guard (the TCP send path at 0
# allocations per send, plain and causal; a 1 MiB transfer under 64 KiB;
# a decision over 20k samples of history within 2x of one over 256; a
# kernel event and the struct-bearing state codec at 0 allocations). The
# concurrency-heavy packages (clock, transport, runtime, swaprun, whose tests are
# the end-to-end smokes, and swapmgr, whose daemons hand the lease over),
# the policy core, and the sweep with the loadgen, platform and rng
# layers each of its workers rebuilds in place run under the race
# detector first, where the transport and decision-cost gates skip
# themselves; the manager failover
# and lease hand-over tests twenty times over, because the race they
# guard (a renewal in flight across a release) showed once in a dozen
# runs, and so the shared-connection test, whose ranks contend for one
# write token differently every time; the swap round's fault rows and
# multi-rank rounds ten times, because every member settles a round from
# votes that arrive in a different order every time, and with them the
# steady swap point and the TCP receive tests, because a receive reads
# its rank's socket itself, into a sink's memory too, and races that read
# against close(), a deadline and a second stream; and the manager's
# wire and durable layer twenty times, because their clients share one
# kept connection and its buffers, and a killed incarnation must close
# every connection it served; and the virtual clock's participant tests
# twenty times, because its concurrent participants, a callback that
# parks and an unpark racing a deadline interleave differently every
# time.
test: race
	$(GO) test ./...

race:
	$(GO) test -race ./internal/clock/ ./internal/mpi/ ./internal/mpi/wire/ ./internal/swaprt/ ./internal/apps/ ./internal/experiment/ \
		./internal/core/ ./internal/loadgen/ ./internal/platform/ ./internal/rng/ ./cmd/swaprun/ ./cmd/swapmgr/
	$(GO) test -race -count=20 -run 'Failover|Supervisor' ./internal/swaprt/
	$(GO) test -race -count=20 -run 'TestTCPSharedConnection' ./internal/mpi/
	$(GO) test -race -count=10 -run 'TestEverySingleFaultAtEveryStep|TestMultiRankSwap|TestVoteSettlesInOneHop|TestSteadySwapPoint|TestTCPRecv|TestRecvTo' ./internal/swaprt/ ./internal/mpi/
	$(GO) test -race -count=20 -run 'RemoteDecider|KilledManager|Durable' ./internal/swaprt/
	$(GO) test -race -count=20 -run 'Virtual|Sleepers' ./internal/clock/

bench:
	$(GO) test -bench=. -benchmem ./...

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

# Verify the paper's claims against freshly generated figures; the static
# analyzers run first so a non-reproducible tree cannot "pass" the check,
# and swapexp's tests hold the committed CSVs to what the simulator
# produces, byte for byte.
check: lint
	$(GO) test ./cmd/swapexp/
	$(GO) run ./cmd/swapexp -check

# Every fuzz target for FUZZTIME each. -fuzzminimizetime 0 skips the
# shrinking of each new interesting input: its execs go uncounted, and a
# short run spent most of its time there at "0/sec". A crasher is still
# reported and written to the package's testdata/fuzz, unshrunk.
FUZZTIME ?= 30s
FUZZ = $(GO) test -fuzztime $(FUZZTIME) -fuzzminimizetime 0 -fuzz

fuzz:
# load trace CSV parser
	$(FUZZ) FuzzParseTraceCSV ./internal/loadgen/
# a payload in parts
	$(FUZZ) FuzzUnpackParts ./internal/mpi/
# a payload of floats
	$(FUZZ) FuzzUnpackFloats ./internal/mpi/
# wire Decode (one frame format, re-encode identity)
	$(FUZZ) FuzzDecode ./internal/mpi/wire/
# swapmgr frame (count checked before make, re-encode identity)
	$(FUZZ) FuzzManagerFrame ./internal/swaprt/
# state decode (bytes and streamed, raw kinds, allocation bound)
	$(FUZZ) FuzzStateDecode ./internal/swaprt/
# plan / vote / commit decode (count checked before make, re-encode identity)
	$(FUZZ) FuzzPlanCommitDecode ./internal/swaprt/
# manager store replay (WAL + snapshot bytes, compact round trip)
	$(FUZZ) FuzzStoreOpen ./internal/swaprt/mgrstore/
# the trace reader (JSONL events with swap records, re-encode identity)
	$(FUZZ) FuzzReadJSONL ./internal/obs/
# performance history (cursors and running sum vs a linear scan)
	$(FUZZ) FuzzHistory ./internal/predict/
# the lazily seeded random source (math/rand draw for draw)
	$(FUZZ) FuzzSourceMatchesMathRand ./internal/rng/
# indexed streams (re-seeded in place, against the formatted name)
	$(FUZZ) FuzzIndexedStreamMatchesNamed ./internal/rng/

# clean removes generated result files only. It must not touch the Go
# build/test caches (or anything under ~/.cache): CI restores and reuses
# them across runs, keyed on go.sum, and `make lint` relies on the build
# cache to keep swapvet compilation cheap.
clean:
	rm -rf results/*.csv results/*.txt results/*.json
