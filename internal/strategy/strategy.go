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
	// Lens is the policy lens report for techniques that audit their
	// decisions (Swap); nil otherwise. Sweeps read prediction accuracy
	// and the shadow scoreboard from here.
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

// driver holds the state of one run while its simulated process executes.
type driver struct {
	p  *platform.Platform
	sc Scenario
	// hosts is the host ID per rank. It is never written in place: a
	// boundary that moves a process installs a new slice, so iteration
	// records and events keep the one they saw without copying it.
	hosts     []int
	chunks    []float64 // flops per rank for the coming iteration
	selStream *rng.Stream
	res       Result

	// boundary decides the Swap technique's swaps and audits them on the
	// virtual clock, as the live runtime's LocalDecider does (its lens is
	// created at the first swap boundary); epoch counts committed swap
	// rounds with the live runtime's convention: a decision at epoch e
	// proposes e+1.
	boundary policylens.Boundary
	epoch    uint64

	// Per-boundary scratch of the Swap technique, sized once per run:
	// the estimated rate and active flag of every host, and the
	// candidate lists as collected.
	rateBuf       []float64
	isActive      []bool
	active, spare []core.Candidate
}

// boundaryHook runs at each iteration boundary (application barrier); it
// returns the overhead seconds it consumed (it must advance virtual time
// itself via proc).
type boundaryHook func(d *driver, proc *simkern.Proc, iter int, iterTime float64)

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
// technique-specific partitioning and boundary behaviour.
func run(p *platform.Platform, sc Scenario, name string, chunks chunkFunc, boundary boundaryHook) Result {
	if err := sc.App.Validate(); err != nil {
		panic(err)
	}
	if sc.Active <= 0 || sc.Active > len(p.Hosts) {
		panic(fmt.Sprintf("strategy: %d active processes on %d hosts", sc.Active, len(p.Hosts)))
	}
	d := &driver{p: p, sc: sc,
		boundary: policylens.Boundary{Policy: sc.policy()},
		rateBuf:  make([]float64, len(p.Hosts)),
		isActive: make([]bool, len(p.Hosts))}
	d.res.Strategy = name
	d.res.Iters = make([]IterRecord, 0, sc.App.Iterations)
	if sc.SwapSelection == "random" {
		d.selStream = rng.NewSource(sc.SelectSeed).Stream("swap-select")
	}
	k := p.Kernel

	k.Go("driver-"+name, func(proc *simkern.Proc) {
		// MPI startup: 3/4 s per allocated process, including the
		// over-allocated spares.
		startup := p.StartupTime(len(p.Hosts))
		proc.Sleep(startup)
		d.res.StartupTime = startup
		d.res.Events = append(d.res.Events, Event{T: proc.Now(), Kind: EventStartup, Procs: len(p.Hosts)})

		// Initial schedule: the fastest processors at startup time.
		d.hosts = p.FastestAt(proc.Now(), sc.Active, nil)
		d.chunks = chunks(d, proc.Now())

		finish := make([]float64, sc.Active)
		for it := 0; it < sc.App.Iterations; it++ {
			start := proc.Now()

			// Compute phase: each rank computes its chunk under its
			// host's time-varying load.
			computeDone := start
			for r := 0; r < sc.Active; r++ {
				finish[r] = p.Hosts[d.hosts[r]].ComputeFinish(start, d.chunks[r])
				if finish[r] > computeDone {
					computeDone = finish[r]
				}
			}

			// Communication phase: each rank sends its iteration data
			// over the shared link as soon as it finishes computing; the
			// iteration barrier completes when the last transfer lands.
			end := d.commPhase(proc, finish, sc.App.BytesPerIter)
			if end < computeDone {
				end = computeDone
			}
			proc.SleepUntil(end)

			rec := IterRecord{
				Index:       it,
				Start:       start,
				ComputeDone: computeDone,
				End:         end,
				Hosts:       d.hosts,
			}
			// Trace the iteration per rank with explicit virtual
			// timestamps, so simulated runs export in the same format as
			// live ones (one track per rank, B/E iteration slices).
			if tr := k.Tracer(); tr.Enabled() {
				for r := 0; r < sc.Active; r++ {
					tr.Emit(obs.Event{Kind: obs.KindIterStart, Rank: r, T: start,
						Peer: d.hosts[r]})
					tr.Emit(obs.Event{Kind: obs.KindIterEnd, Rank: r, T: end,
						Value: end - start, Peer: d.hosts[r]})
				}
				emitCausalBarrier(tr, k.Causal(), sc.Active, finish, computeDone, end,
					sc.App.BytesPerIter)
			}

			// Boundary: the technique may swap, rebalance or checkpoint.
			if boundary != nil && it < sc.App.Iterations-1 {
				before := proc.Now()
				boundary(d, proc, it, end-start)
				rec.Overhead = proc.Now() - before
				d.res.Overhead += rec.Overhead
			}
			d.res.Iters = append(d.res.Iters, rec)
		}
		d.res.TotalTime = proc.Now()
		d.res.FinalHosts = d.hosts
		if d.boundary.Lens != nil {
			rep := d.boundary.Lens.Report()
			d.res.Lens = &rep
		}
	})
	k.Run()
	if stuck := k.Stuck(); stuck != nil {
		panic(fmt.Sprintf("strategy: run %s deadlocked: %v", name, stuck))
	}
	return d.res
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

// commPhase starts one transfer per rank at its ready time and blocks the
// driver until all have completed, returning the completion time of the
// last one. Zero-byte communication completes immediately at the latest
// ready time.
func (d *driver) commPhase(proc *simkern.Proc, readyAt []float64, bytes float64) float64 {
	latest := 0.0
	for _, t := range readyAt {
		if t > latest {
			latest = t
		}
	}
	if bytes <= 0 {
		return latest
	}
	k := d.p.Kernel
	remaining := len(readyAt)
	endAt := 0.0
	landed := func() {
		remaining--
		if remaining == 0 {
			endAt = k.Now()
			proc.Unpark()
		}
	}
	send := func() { d.p.Link.Start(bytes, landed) }
	for _, t := range readyAt {
		k.At(t, send)
	}
	proc.Park()
	return endAt
}

// transferAll starts one state transfer per entry in bytes and blocks the
// driver until all complete (used for swaps and checkpoint write/read
// phases, which happen inside the application barrier).
func (d *driver) transferAll(proc *simkern.Proc, count int, bytes float64) {
	if count <= 0 || bytes <= 0 {
		return
	}
	remaining := count
	landed := func() {
		remaining--
		if remaining == 0 {
			proc.Unpark()
		}
	}
	for i := 0; i < count; i++ {
		d.p.Link.Start(bytes, landed)
	}
	proc.Park()
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
