// Package strategy implements the four execution techniques compared in
// the paper's simulation study (Section 6): doing nothing (None), MPI
// process swapping (Swap), dynamic load balancing (DLB) and
// checkpoint/restart (CR). Each technique drives the same iterative
// application over the same simulated platform; they differ only in the
// initial work partition and in what happens at iteration boundaries.
package strategy

import (
	"fmt"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/swaprt/policylens"
)

// Scenario configures one simulated application run.
type Scenario struct {
	// Active is N, the number of processes the application computes on.
	Active int
	// App is the iterative application.
	App app.Iterative
	// Policy gates swap (Swap) and relocation (CR) decisions. The
	// zero-value policy is replaced by core.Greedy().
	Policy core.Policy
	// Estimator predicts host rates from history; nil means the
	// idealized exact estimator.
	Estimator predict.RateEstimator
	// SwapSelection picks the pair-selection rule for the Swap
	// technique: "" (or "slowest-fastest") is the paper's rule — swap
	// the slowest active processor(s) for the fastest spare(s); "random"
	// pairs random actives with random spares that clear the policy's
	// gates, the ablation DESIGN.md calls out.
	SwapSelection string
	// SelectSeed seeds the random selector.
	SelectSeed int64
	// Lens, when set, audits the Swap technique's decisions on the
	// virtual clock and its report is Result.Lens; nil audits nothing.
	Lens *policylens.Lens
}

func (sc Scenario) policy() core.Policy {
	if sc.Policy == (core.Policy{}) {
		return core.Greedy()
	}
	return sc.Policy
}

func (sc Scenario) estimator() predict.RateEstimator {
	if sc.Estimator == nil {
		return predict.ExactEstimator{}
	}
	return sc.Estimator
}

// EventKind labels Result events.
type EventKind string

// Event kinds recorded by the techniques.
const (
	EventStartup    EventKind = "startup"
	EventSwap       EventKind = "swap"
	EventCheckpoint EventKind = "checkpoint"
	EventRebalance  EventKind = "rebalance"
)

// Event is one notable runtime occurrence. It carries the numbers; the
// sentence a report prints is built on request by Detail, so a sweep
// that reads only totals formats nothing.
type Event struct {
	T    float64
	Kind EventKind
	// Iter is the iteration whose boundary acted (swap, checkpoint).
	Iter int
	// Procs is the number of processes started, spares included (startup).
	Procs int
	// Rank is the process moved (swap).
	Rank int
	// From and To are the host per rank before and after the boundary
	// (swap, checkpoint): a swap moved Rank from From[Rank] to To[Rank],
	// a relocation moved the application from From to To. They are
	// shared with the iteration records and must not be written.
	From, To []int
	Payback  float64 // predicted payback distance, iterations (swap, checkpoint)
	Gain     float64 // predicted process performance gain, a fraction (swap)
}

// Detail words the event for a report; rebalances have nothing to add.
func (e Event) Detail() string {
	switch e.Kind {
	case EventStartup:
		return fmt.Sprintf("%d processes", e.Procs)
	case EventSwap:
		return fmt.Sprintf("iter %d: rank %d host %d -> %d (payback %.2f, gain %.0f%%)",
			e.Iter, e.Rank, e.From[e.Rank], e.To[e.Rank], e.Payback, e.Gain*100)
	case EventCheckpoint:
		return fmt.Sprintf("iter %d: relocate %v -> %v (payback %.2f)", e.Iter, e.From, e.To, e.Payback)
	}
	return ""
}

// IterRecord captures one application iteration.
type IterRecord struct {
	Index       int
	Start       float64
	ComputeDone float64 // when the last process finished computing
	End         float64 // when the last communication finished (barrier)
	Overhead    float64 // boundary overhead (swap/checkpoint) after End
	// Hosts is the host ID per rank during this iteration. Iterations
	// between which no process moved share one slice: it must not be
	// written.
	Hosts []int
}

// Time reports the iteration duration excluding boundary overhead.
func (r IterRecord) Time() float64 { return r.End - r.Start }

// Result summarizes one run.
type Result struct {
	Strategy    string
	TotalTime   float64 // makespan: startup through last iteration + final overhead
	StartupTime float64
	Swaps       int     // processes swapped (Swap) or checkpoint restarts (CR)
	Overhead    float64 // total boundary overhead seconds
	Iters       []IterRecord
	Events      []Event
	FinalHosts  []int
	// Lens is the report of Scenario.Lens: the prediction accuracy and
	// shadow scoreboard of a Swap run's decisions; nil without a lens.
	Lens *policylens.Report
}

// MeanIterTime reports the average iteration duration (excluding
// overhead).
func (r Result) MeanIterTime() float64 {
	if len(r.Iters) == 0 {
		return 0
	}
	s := 0.0
	for _, it := range r.Iters {
		s += it.Time()
	}
	return s / float64(len(r.Iters))
}

// Technique is one of the paper's four approaches.
type Technique interface {
	Name() string
	// Run executes the scenario on the platform and drives its kernel
	// to completion. A run needs its own binding — an idle kernel at
	// the virtual time the run starts from and an idle link
	// (platform.Environment.Bind) — but not its own hosts: runs over one
	// environment, one after another, each see the load a run over a
	// freshly built environment would.
	Run(p *platform.Platform, sc Scenario) Result
}

// ByName returns the technique with the given name.
func ByName(name string) (Technique, error) {
	switch name {
	case "none":
		return None{}, nil
	case "swap":
		return Swap{}, nil
	case "dlb":
		return DLB{}, nil
	case "cr":
		return CR{}, nil
	}
	return nil, fmt.Errorf("strategy: unknown technique %q (want none, swap, dlb or cr)", name)
}

// ---------------------------------------------------------------------------
// Shared driver.

// driver holds the state of one run. A run is a chain of kernel events:
// iterate schedules one send per rank at its compute-finish time, the
// last transfer to land schedules iterEnd, iterEnd hands the boundary to
// the technique, and the boundary's done callback starts the next
// iteration. Every link in the chain is scheduled where the simulated
// process of a goroutine driver would have been woken, so events keep
// their (time, sequence) order.
type driver struct {
	p    *platform.Platform
	k    *simkern.Kernel
	sc   Scenario
	hook boundaryHook
	// hosts is the host ID per rank. It is never written in place: a
	// boundary that moves a process installs a new slice, so iteration
	// records and events keep the one they saw without copying it.
	hosts     []int
	chunks    []float64 // flops per rank for the coming iteration
	selStream *rng.Stream
	res       Result

	// The iteration in flight: its index, per-rank compute-finish times,
	// and its record, completed by iterEnd and closed by boundaryDone.
	iter   int
	finish []float64
	rec    IterRecord

	// remaining counts the transfers of the current phase still in
	// flight; the last to land schedules then.
	remaining int
	then      func()

	// The chain's callbacks, bound once per run: evaluating a method
	// value allocates.
	sendFn, landedFn, iterEndFn, boundaryDoneFn func()

	// An acting boundary's enactment, for the continuations Swap and CR
	// bind at their first acting boundary: when the boundary acted, the
	// swaps it enacted or the hosts CR relocates to, when CR's
	// checkpoint read began, and the boundary's done.
	actedAt, readStart        float64
	swaps                     []core.SwapPair
	relocTo                   []int
	done                      func()
	swapLandedFn, crWrittenFn func()
	crRestartedFn, crReadFn   func()

	// boundary decides the Swap technique's swaps and audits them on the
	// virtual clock through the scenario's lens, as the live runtime's
	// LocalDecider does; epoch counts committed rounds (Swap's swaps, CR's
	// relocations) with the live runtime's convention: a decision at
	// epoch e proposes e+1.
	boundary policylens.Boundary
	epoch    uint64

	// record is a traced run's swap record of the round in flight
	// (openRecord, closeRecord).
	record *obs.Event

	// Per-boundary scratch, sized once per run: the estimated rate and
	// active flag of every host, the Swap technique's candidate lists, and
	// CR's best hosts and old+new set rates (made at its first boundary).
	rateBuf       []float64
	isActive      []bool
	active, spare []core.Candidate
	best          []int
	relocRates    []float64
}

// boundaryHook runs at each iteration boundary (application barrier) but
// the last. It may schedule events — state transfers, a restart — and
// calls done once, at the virtual time the boundary ends; the time it
// took is the iteration's overhead. A hook with nothing to do calls done
// before returning.
type boundaryHook func(d *driver, iter int, iterTime float64, done func())

// initialChunks computes the starting partition. Equal by default;
// DLB overrides with a balanced partition.
type chunkFunc func(d *driver, t float64) []float64

func equalChunks(d *driver, _ float64) []float64 {
	n := d.sc.Active
	chunks := make([]float64, n)
	for i := range chunks {
		chunks[i] = d.sc.App.WorkPerProcIter
	}
	return chunks
}

// run executes the common iterate/communicate/barrier loop with the
// technique-specific partitioning and boundary behaviour, on the calling
// goroutine: a panic inside the run reaches the caller. A run whose event
// queue drains before its last iteration ends — a boundary that never
// called done — panics naming the technique and the iteration.
func run(p *platform.Platform, sc Scenario, name string, chunks chunkFunc, boundary boundaryHook) Result {
	if err := sc.App.Validate(); err != nil {
		panic(err)
	}
	if sc.Active <= 0 || sc.Active > len(p.Hosts) {
		panic(fmt.Sprintf("strategy: %d active processes on %d hosts", sc.Active, len(p.Hosts)))
	}
	k := p.Kernel
	d := &driver{p: p, k: k, sc: sc, hook: boundary,
		finish:   make([]float64, sc.Active),
		boundary: policylens.Boundary{Policy: sc.policy(), Lens: sc.Lens},
		rateBuf:  make([]float64, len(p.Hosts)),
		isActive: make([]bool, len(p.Hosts))}
	d.sendFn, d.landedFn, d.iterEndFn, d.boundaryDoneFn = d.send, d.landed, d.iterEnd, d.boundaryDone
	d.res.Strategy = name
	d.res.Iters = make([]IterRecord, 0, sc.App.Iterations)
	if sc.SwapSelection == "random" {
		d.selStream = rng.NewSource(sc.SelectSeed).Stream("swap-select")
	}

	// MPI startup: 3/4 s per allocated process, including the
	// over-allocated spares.
	d.res.StartupTime = p.StartupTime(len(p.Hosts))
	k.After(d.res.StartupTime, func() {
		now := k.Now()
		d.res.Events = append(d.res.Events, Event{T: now, Kind: EventStartup, Procs: len(p.Hosts)})
		// Initial schedule: the fastest processors at startup time (d.sc:
		// capturing sc, over 128 bytes, would move it to the heap).
		d.hosts = p.FastestAt(now, d.sc.Active, nil)
		d.chunks = chunks(d, now)
		d.iterate()
	})
	k.Run()
	if len(d.res.Iters) < sc.App.Iterations {
		panic(fmt.Sprintf("strategy: run %s stalled in iteration %d: the event queue drained before the last iteration",
			name, d.iter))
	}
	return d.res
}

// iterate starts iteration d.iter at the current virtual time. Compute
// phase: each rank computes its chunk under its host's time-varying load.
// Communication phase: each rank sends its iteration data over the shared
// link as soon as it finishes computing; the iteration barrier completes
// when the last transfer lands, or when the last rank finishes computing
// if there is nothing to send.
func (d *driver) iterate() {
	start := d.k.Now()
	computeDone := start
	for r, h := range d.hosts {
		d.finish[r] = d.p.Hosts[h].ComputeFinish(start, d.chunks[r])
		if d.finish[r] > computeDone {
			computeDone = d.finish[r]
		}
	}
	d.rec = IterRecord{Index: d.iter, Start: start, ComputeDone: computeDone, Hosts: d.hosts}
	if d.sc.App.BytesPerIter <= 0 {
		d.k.At(computeDone, d.iterEndFn)
		return
	}
	d.remaining, d.then = len(d.finish), d.iterEndFn
	for _, t := range d.finish {
		d.k.At(t, d.sendFn)
	}
}

// send starts one rank's iteration data on the link.
func (d *driver) send() { d.p.Link.Start(d.sc.App.BytesPerIter, d.landedFn) }

// landed counts one transfer of the current phase in; the last one wakes
// the phase's continuation at the current virtual time.
func (d *driver) landed() {
	if d.remaining--; d.remaining == 0 {
		d.k.At(d.k.Now(), d.then)
	}
}

// iterEnd closes the iteration at the barrier and hands the boundary to
// the technique: it may swap, rebalance or checkpoint.
func (d *driver) iterEnd() {
	end := d.k.Now()
	d.rec.End = end
	// Trace the iteration per rank with explicit virtual timestamps, so
	// simulated runs export in the same format as live ones (one track
	// per rank, B/E iteration slices).
	if tr := d.k.Tracer(); tr.Enabled() {
		start := d.rec.Start
		for r, h := range d.hosts {
			tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: r, T: start, Peer: h})
			tr.Emit(obs.Event{Kind: obs.KindIterEnd, Rank: r, T: end, Value: end - start, Peer: h})
		}
		emitCausalBarrier(tr, d.k.Causal(), d.sc.Active, d.finish, d.rec.ComputeDone, end,
			d.sc.App.BytesPerIter)
	}
	if d.hook != nil && d.iter < d.sc.App.Iterations-1 {
		d.hook(d, d.iter, end-d.rec.Start, d.boundaryDoneFn)
		return
	}
	d.boundaryDone()
}

// boundaryDone charges the boundary's time to the iteration as overhead
// and starts the next iteration, or finishes the run after the last.
func (d *driver) boundaryDone() {
	now := d.k.Now()
	d.rec.Overhead = now - d.rec.End
	d.res.Overhead += d.rec.Overhead
	d.res.Iters = append(d.res.Iters, d.rec)
	if d.iter++; d.iter < d.sc.App.Iterations {
		d.iterate()
		return
	}
	d.res.TotalTime = now
	d.res.FinalHosts = d.hosts
	if d.boundary.Lens != nil {
		rep := d.boundary.Lens.Report()
		d.res.Lens = &rep
	}
}

// emitCausalBarrier traces the iteration barrier as explicit Lamport
// message edges when causal clocks are armed: every non-root rank sends
// its iteration data to rank 0 at its compute-finish time, and rank 0's
// completion fans back out at the barrier end. The events use the same
// MsgSend/MsgRecv format a live -causal world emits, just on virtual
// timestamps, so post-mortem tooling treats both identically. Without
// armed clocks (cz nil) nothing is emitted and the trace stays
// byte-identical to pre-causal runs.
func emitCausalBarrier(tr *obs.Tracer, cz *obs.Causal, active int, finish []float64,
	computeDone, end, bytes float64) {
	if cz == nil || active <= 1 {
		return
	}
	b := int64(bytes)
	for r := 1; r < active; r++ {
		lc, seq := cz.OnSend(r)
		tr.Emit(obs.Event{Kind: obs.KindMsgSend, Rank: r, T: finish[r],
			Peer: 0, Bytes: b, LC: lc, Seq: seq})
		rlc := cz.OnRecv(0, lc)
		tr.Emit(obs.Event{Kind: obs.KindMsgRecv, Rank: 0, T: computeDone,
			Peer: r, Bytes: b, LC: rlc, Seq: seq, PeerLC: lc})
	}
	for r := 1; r < active; r++ {
		lc, seq := cz.OnSend(0)
		tr.Emit(obs.Event{Kind: obs.KindMsgSend, Rank: 0, T: computeDone,
			Peer: r, Bytes: b, LC: lc, Seq: seq})
		rlc := cz.OnRecv(r, lc)
		tr.Emit(obs.Event{Kind: obs.KindMsgRecv, Rank: r, T: end,
			Peer: 0, Bytes: b, LC: rlc, Seq: seq, PeerLC: lc})
	}
}

// transferAll starts count concurrent transfers of bytes each and runs
// then when the last one lands (swaps and checkpoint write/read phases,
// which happen inside the application barrier). With nothing to move it
// runs then at once.
func (d *driver) transferAll(count int, bytes float64, then func()) {
	if count <= 0 || bytes <= 0 {
		then()
		return
	}
	d.remaining, d.then = count, then
	for i := 0; i < count; i++ {
		d.p.Link.Start(bytes, d.landedFn)
	}
}

// reserveEvents makes room for perBoundary events at this boundary and
// every one after it. A technique calls it at each acting boundary with
// the most events one boundary appends: Events then grows once past the
// startup event, at the first acting boundary, and never again.
func (d *driver) reserveEvents(iter, perBoundary int) {
	need := len(d.res.Events) + perBoundary*(d.sc.App.Iterations-1-iter)
	if need > cap(d.res.Events) {
		d.res.Events = append(make([]Event, 0, need), d.res.Events...)
	}
}

// markActive flags the hosts of the current placement in isActive.
func (d *driver) markActive() {
	clear(d.isActive)
	for _, h := range d.hosts {
		d.isActive[h] = true
	}
}

// rates returns the estimated rate of every host, using the policy's
// history window ending at now. The slice is the driver's and is
// overwritten by the next call.
func (d *driver) rates(now float64) []float64 {
	est := d.sc.estimator()
	w := d.sc.policy().HistoryWindow
	for i, h := range d.p.Hosts {
		d.rateBuf[i] = est.Rate(h, now, w)
	}
	return d.rateBuf
}

// predictedSwapTime is the paper's swap-cost model on this platform.
func (d *driver) predictedSwapTime() float64 {
	return core.SwapTime(d.p.Link.Latency, d.p.Link.Bandwidth, d.sc.App.StateBytes)
}
