package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// workload is one closed-loop input set: one application, the next op
// only after the previous one completed.
type workload struct {
	name    string
	why     string // one sentence; BENCHMARK.json carries the same text
	control string
	// Per-round counts at the nominal run length (runSeconds). FROZEN
	// with ctl.go: changing them changes what every later PR is
	// compared against.
	ops, warm, every int
	run              func(rc *roundCtx) (roundResult, error)
}

// runSeconds is the run length the counts above were sized for: five
// rounds of ≈ 2 s of timed ops each on the baseline host.
const (
	runSeconds = 10
	rounds     = 5
)

const (
	gridSmall = 4 << 10
	gridLarge = 1 << 20
)

var workloads = []workload{
	{name: "swap-small", control: "ctl_rtt", ops: 5100, warm: 1020, every: 170,
		why: "4 KiB state, one forced swap commit per iteration: protocol round trips, manager bookkeeping and communicator rebuild dominate, codec and bytes are negligible (control ctl_rtt)",
		run: func(rc *roundCtx) (roundResult, error) {
			return runLiveRound(liveParams{gridBytes: gridSmall, policy: "greedy", swap: true}, rc)
		}},
	{name: "swap-large", control: "ctl_gob", ops: 180, warm: 35, every: 5,
		why: "1 MiB state (the paper's 1 MB process), one forced swap per iteration: the state codec and bytes dominate, the protocol is noise; mirror image of swap-small (control ctl_gob)",
		run: func(rc *roundCtx) (roundResult, error) {
			return runLiveRound(liveParams{gridBytes: gridLarge, policy: "greedy", swap: true}, rc)
		}},
	{name: "steady-observed", control: "ctl_rtt", ops: 9900, warm: 1980, every: 330,
		why: "balanced probe, safe policy, never swaps, causal+flight+telemetry+lens on: what every iteration pays when nothing moves, so a swap-path gain that taxes the steady path shows (control ctl_rtt)",
		run: func(rc *roundCtx) (roundResult, error) {
			return runLiveRound(liveParams{gridBytes: gridSmall, policy: "safe", observed: true}, rc)
		}},
	{name: "managed-swap", control: "ctl_rtt", ops: 2000, warm: 400, every: 50,
		why: "swap-small's loop deciding through the supervised durable manager: the Remote-Durable-Local decider stack, JSON/TCP and WAL appends dominate; guards the decider refactor (control ctl_rtt)",
		run: func(rc *roundCtx) (roundResult, error) {
			return runLiveRound(liveParams{gridBytes: gridSmall, policy: "greedy", swap: true, managed: true}, rc)
		}},
	{name: "sim-figures", control: "ctl_heap", ops: 48, warm: 10, every: 2,
		why: "Fig. 4 + Fig. 7 at reduced size per op: the simulator end to end (simkern, platform, loadgen, four strategies, three policies) with no mpi or swaprt at all (control ctl_heap)",
		run: runSimRound},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled returns the per-round counts for a run of the given length:
// counts scale with -seconds, and the same -seconds always gives the
// same counts. divisor > 1 shrinks them further (smoke runs).
func (w *workload) scaled(seconds float64, divisor int) (ops, warm, every int) {
	every = w.every
	ops = int(float64(w.ops) * seconds / runSeconds / float64(divisor))
	if ops < 2*every {
		every = max(1, ops/2)
	}
	ops = max(every, ops/every*every)
	warm = max(1, (ops/5+every/2)/every) * every // whole blocks, ≈ 20 % of ops
	return ops, warm, every
}

// ------------------------------------------------------------- live app

// appState is what the live workloads register with the runtime.
type appState struct {
	Iter int
	Meta stateMeta
	Grid []float64
}

// register hands the three variables to the runtime.
func (st *appState) register(s session) {
	s.register("iter", &st.Iter)
	s.register("meta", &st.Meta)
	s.register("grid", &st.Grid)
}

// stateMeta's fields are all kept non-zero: the runtime's gob codec
// omits a struct field that is zero at the sender, so a rank that was
// active before keeps its own stale value for it after a swap-in (a
// defect this benchmark found and a later issue fixes; see README).
type stateMeta struct {
	Seed  int64
	Step  int64 // 1 + last iteration that wrote the grid
	Pos   int32 // 1 + communicator position that wrote it
	Label string
}

// schedule is the deterministic plan of a swap round: which world rank
// the probe slows down at each iteration (the victim, at communicator
// position (k+phase) mod active), and which spare therefore comes in.
type schedule struct {
	victim  []int   // per iteration: world rank swapped out
	in      []int   // per iteration: world rank swapped in
	pos     []int   // per iteration: communicator position exchanged
	inIters [][]int // per world rank: the iterations it is swapped in at
}

func newSchedule(seed int64, active, total int) *schedule {
	s := &schedule{
		victim: make([]int, total), in: make([]int, total), pos: make([]int, total),
		inIters: make([][]int, active+1)}
	set := make([]int, active)
	for i := range set {
		set[i] = i
	}
	spare := active
	phase := int(uint64(seed) % uint64(active))
	for k := 0; k < total; k++ {
		p := (k + phase) % active
		s.victim[k], s.in[k], s.pos[k] = set[p], spare, p
		s.inIters[spare] = append(s.inIters[spare], k)
		set[p], spare = spare, set[p]
	}
	return s
}

// fillGrid writes the initial state of communicator position pos.
func fillGrid(grid []float64, seed int64, pos int, zero bool) {
	if zero {
		for i := range grid {
			grid[i] = 0
		}
		return
	}
	rng := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(pos) + 1)
	for i := range grid {
		grid[i] = fullMantissa(rng.next())
	}
}

// touch is iteration k's work at position pos: three seeded elements of
// the grid get seeded values. verify checks the same three.
func touch(grid []float64, seed int64, k, pos int, verify bool) bool {
	rng := splitmix64(uint64(seed) ^ uint64(k)*0xd1342543de82ef95 ^ uint64(pos+1)<<56)
	n := len(grid)
	base := int(rng.next() % uint64(n))
	for j := 0; j < 3; j++ {
		i := (base + j*(n/3)) % n
		v := fullMantissa(rng.next())
		if verify {
			if grid[i] != v {
				return false
			}
		} else {
			grid[i] = v
		}
	}
	return true
}

func hashGrid(grid []float64) uint64 {
	h := newHash()
	for _, v := range grid {
		h.float(v)
	}
	return h.sum
}

// expectedHashes replays position pos's writes on its initial fill and
// returns the grid hash before iteration `at` for each requested point.
func expectedHashes(n int, seed int64, pos int, zero bool, at []int) []uint64 {
	grid := make([]float64, n)
	fillGrid(grid, seed, pos, zero)
	out := make([]uint64, len(at))
	k := 0
	for i, stop := range at {
		for ; k < stop; k++ {
			touch(grid, seed, k, pos, false)
		}
		out[i] = hashGrid(grid)
	}
	return out
}

type liveParams struct {
	gridBytes int
	policy    string
	swap      bool // the probe forces one swap commit per iteration
	observed  bool
	managed   bool
}

const (
	liveActive = 2
	liveSpares = 1
	rateFast   = 1000
	rateSlow   = 100
)

// runLiveRound is one round of a live workload: a fresh 2+1 TCP world,
// warm-up, timed ops, correctness checks on every op.
func runLiveRound(p liveParams, rc *roundCtx) (res roundResult, err error) {
	base := time.Now()
	rec := rc.rec
	roundSpan := rec.begin("round", 0)
	defer func() { rec.end(roundSpan) }()
	setupSpan := rec.begin("setup", roundSpan)

	total := rc.warm + rc.ops
	n := p.gridBytes / 8
	sched := newSchedule(rc.seed, liveActive, total)

	// cur[r] is the iteration world rank r is finishing, or -1 once the
	// rank has reported its slow reading (or is parked): the probe is
	// called by each active rank for itself, and by the leader for the
	// spare, which must always look fast.
	cur := make([]atomic.Int64, liveActive+liveSpares)
	for i := range cur {
		cur[i].Store(-1)
	}
	probe := func(worldRank int) float64 {
		if !p.swap {
			return rateFast
		}
		if k := cur[worldRank].Load(); k >= 0 && sched.victim[k] == worldRank {
			cur[worldRank].Store(-1)
			return rateSlow
		}
		return rateFast
	}

	newSpan := rec.begin("world.new", setupSpan)
	ctl, err := rc.startControl()
	if err != nil {
		return res, err
	}
	defer ctl.close()
	spec := liveSpec{active: liveActive, spares: liveSpares, policy: p.policy, probe: probe, observed: p.observed}
	if p.managed {
		root, _ := storeRoot()
		if spec.managerDir, err = os.MkdirTemp(root, "swapbench-mgr-*"); err != nil {
			return res, err
		}
		defer os.RemoveAll(spec.managerDir)
	}
	lw, err := newLiveWorld(spec)
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			lw.close()
		}
	}()
	rec.end(newSpan)

	fillSpan := rec.begin("state.fill", setupSpan)
	checkAt := []int{rc.warm - 1, total}
	var want [liveActive][]uint64
	for pos := range want {
		want[pos] = expectedHashes(n, rc.seed, pos, rc.zeroFill, checkAt)
	}
	rec.end(fillSpan)

	m := newMeter(rc, base, ctl, roundSpan, setupSpan)
	var wire0 wireCounts
	var obs0 uint64
	m.onTimed = func() {
		wire0 = lw.wire()
		obs0, _ = lw.obsCounts()
	}
	failed := make([]atomic.Bool, total)
	fail := func(k int, format string, args ...any) {
		if k >= 0 && k < total && !failed[k].Swap(true) {
			fmt.Fprintf(os.Stderr, "swapbench: op %d failed: %s\n", k, fmt.Sprintf(format, args...))
		}
	}

	body := func(s session) error {
		st := &appState{Grid: make([]float64, n)}
		st.register(s)
		me := s.rank()
		wasActive := s.active()
		if wasActive {
			fillGrid(st.Grid, rc.seed, s.commRank(), rc.zeroFill)
			st.Meta = stateMeta{Seed: rc.seed, Step: -1, Pos: int32(s.commRank()) + 1, Label: "swapbench"}
		}
		nIn := 0    // how many times this rank has been swapped in
		lastK := -1 // last iteration this rank computed itself
		for !s.done() && st.Iter < total {
			if s.active() {
				pos, k := s.commRank(), st.Iter
				if pos == 0 {
					m.opStart(k)
				}
				if k == checkAt[0] && hashGrid(st.Grid) != want[pos][0] {
					fail(k, "grid checksum at warm-up end, position %d", pos)
				}
				touch(st.Grid, rc.seed, k, pos, false)
				st.Meta.Step, st.Meta.Pos = int64(k)+1, int32(pos)+1
				st.Iter = k + 1
				lastK = k
				cur[me].Store(int64(k))
			}
			if err := s.swapPoint(); err != nil {
				return err
			}
			if !s.active() {
				wasActive = false
				continue
			}
			// Per-op check. A rank that stayed knows the iteration from its
			// own loop; a rank that just came in takes it from the
			// schedule, not from the state it was shipped.
			k, cameIn := lastK, !wasActive
			if cameIn {
				wasActive = true
				if !p.swap || nIn >= len(sched.inIters[me]) {
					fail(lastK+1, "rank %d swapped in off schedule", me)
					continue
				}
				k = sched.inIters[me][nIn]
				nIn++
			}
			pos := s.commRank()
			switch {
			case st.Iter != k+1:
				fail(k, "iter %d after iteration %d at rank %d", st.Iter, k, me)
			case cameIn && pos != sched.pos[k]:
				fail(k, "rank %d came in at position %d, want %d", me, pos, sched.pos[k])
			case st.Meta.Seed != rc.seed || st.Meta.Step != int64(k)+1 || int(st.Meta.Pos) != pos+1:
				fail(k, "meta %+v after iteration %d position %d", st.Meta, k, pos)
			case !touch(st.Grid, rc.seed, k, pos, true):
				fail(k, "grid probe elements after iteration %d position %d", k, pos)
			}
		}
		if s.active() {
			pos := s.commRank()
			if pos == 0 {
				m.finish()
			}
			if hashGrid(st.Grid) != want[pos][1] {
				fail(total-1, "grid checksum at round end, position %d", pos)
			}
		}
		return nil
	}

	stats, err := lw.run(body)
	if err != nil {
		return res, fmt.Errorf("run: %w", err)
	}
	wire1 := lw.wire()
	obs1, dropped := lw.obsCounts()
	closed = true
	records, err := lw.close()
	if err != nil {
		return res, err
	}
	if res, err = m.result(); err != nil {
		return res, err
	}

	res.WireBytes = wire1.bytes - wire0.bytes
	res.Msgs = wire1.msgs - wire0.msgs
	for k := rc.warm; k < total; k++ {
		if failed[k].Load() {
			res.Failed++
		}
	}
	for k := 0; k < rc.warm; k++ {
		if failed[k].Load() {
			res.Failed = rc.ops // a broken warm-up invalidates the round
		}
	}
	// Round-level assertions: any violation fails every op of the round.
	wantSwaps := 0
	if p.swap {
		wantSwaps = total
	}
	violation := ""
	switch {
	case stats.swaps != wantSwaps:
		violation = fmt.Sprintf("swaps = %d, want %d", stats.swaps, wantSwaps)
	case stats.aborts != 0:
		violation = fmt.Sprintf("swap aborts = %d", stats.aborts)
	case stats.quarantined != 0:
		violation = fmt.Sprintf("quarantined = %d", stats.quarantined)
	case p.swap && stats.stateBytes < int64(total)*int64(p.gridBytes):
		violation = fmt.Sprintf("state bytes = %d < %d ops x %d nominal (compressible fill?)",
			stats.stateBytes, total, p.gridBytes)
	}
	if violation != "" {
		fmt.Fprintf(os.Stderr, "swapbench: round %d failed: %s\n", rc.round, violation)
		res.Failed = rc.ops
	}

	ops, all := float64(rc.ops), float64(total)
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	res.Layer["swaprt.decide_us_per_op"] = us(stats.decide) / all
	res.Layer["swaprt.state_send_us_per_op"] = us(stats.stateSend) / all
	res.Layer["swaprt.state_recv_us_per_op"] = us(stats.stateRecv) / all
	res.Layer["swaprt.state_bytes_per_op"] = float64(stats.stateBytes) / all
	res.Layer["swaprt.swap_commit_ratio"] = 1
	if attempts := stats.swaps + stats.aborts; attempts > 0 {
		res.Layer["swaprt.swap_commit_ratio"] = float64(stats.swaps) / float64(attempts)
	}
	res.Layer["mpi.collectives_per_op"] = float64(wire1.collectives-wire0.collectives) / ops
	res.Layer["mpi.send_block_us_per_op"] = us(wire1.sendBlock-wire0.sendBlock) / ops
	res.Layer["obs.events_per_op"] = float64(obs1-obs0) / ops
	res.Layer["obs.dropped_events"] = float64(dropped)
	res.Layer["mgrstore.records_per_op"] = float64(records) / all
	return res, nil
}

// ------------------------------------------------------------ simulator

// simSeeds is how many distinct base seeds the ops of a round cycle
// through; the serial reference of each is computed in warm-up.
const simSeeds = 7

func runSimRound(rc *roundCtx) (res roundResult, err error) {
	base := time.Now()
	rec := rc.rec
	roundSpan := rec.begin("round", 0)
	defer func() { rec.end(roundSpan) }()
	setupSpan := rec.begin("setup", roundSpan)

	newSpan := rec.begin("world.new", setupSpan)
	ctl, err := rc.startControl()
	if err != nil {
		return res, err
	}
	defer ctl.close()
	rec.end(newSpan)

	// The serial single-thread result of every base seed: the reference
	// each parallel op must reproduce bit for bit.
	fillSpan := rec.begin("state.fill", setupSpan)
	var refs [simSeeds]uint64
	for j := range refs {
		refs[j], _ = figuresOp(rc.seed+int64(j), true)
	}
	rec.end(fillSpan)

	total := rc.warm + rc.ops
	m := newMeter(rc, base, ctl, roundSpan, setupSpan)
	runs, failed := 0, 0
	for k := 0; k < total; k++ {
		m.opStart(k)
		j := k % simSeeds
		h, r := figuresOp(rc.seed+int64(j), false)
		runs = r
		if h != refs[j] {
			fmt.Fprintf(os.Stderr, "swapbench: op %d failed: figures differ from the serial reference (seed %d)\n",
				k, rc.seed+int64(j))
			failed++
			if k < rc.warm {
				failed = rc.ops // a broken warm-up invalidates the round
			}
		}
	}
	m.finish()
	if res, err = m.result(); err != nil {
		return res, err
	}
	res.Failed = min(failed, rc.ops)
	res.Layer["experiment.runs_per_op"] = float64(runs)
	return res, nil
}
