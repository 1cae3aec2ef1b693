package strategy

import (
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/simkern"
)

// CR is checkpoint/restart used for performance: at every iteration
// boundary the execution rate is analyzed and, if the policy predicts
// that a different processor set would pay off ("based on the same
// criteria used to evaluate process swapping decisions"), the application
// checkpoints all process state to a central location over the shared
// link, restarts (paying the MPI startup cost again) on the best current
// processors, and reads the checkpoint back. Unlike Swap, CR may move
// every process at once; unlike DLB, it is not restricted to the initial
// set. Per the paper, no new-schedule computation delay or cool-off
// period is modelled.
type CR struct{}

// Name implements Technique.
func (CR) Name() string { return "cr" }

// Run implements Technique.
func (CR) Run(p *platform.Platform, sc Scenario) Result {
	return run(p, sc, "cr", equalChunks, crBoundary)
}

func crBoundary(d *driver, proc *simkern.Proc, iter int, iterTime float64) {
	if iterTime <= 0 {
		return
	}
	now := proc.Now()
	rates := d.rates(now)
	n := d.sc.Active

	// Best candidate set: the n hosts with the highest estimated rates.
	ids := make([]int, len(d.p.Hosts))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool {
		if rates[ids[a]] != rates[ids[b]] {
			return rates[ids[a]] > rates[ids[b]]
		}
		return ids[a] < ids[b]
	})
	best := append([]int(nil), ids[:n]...)

	sameSet := func(a, b []int) bool {
		x := append([]int(nil), a...)
		y := append([]int(nil), b...)
		sort.Ints(x)
		sort.Ints(y)
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if sameSet(best, d.hosts) {
		return
	}

	oldRates := make([]float64, n)
	newRates := make([]float64, n)
	for r := 0; r < n; r++ {
		oldRates[r] = rates[d.hosts[r]]
		newRates[r] = rates[best[r]]
	}

	// Predicted overhead: write n states to the central store (the n
	// concurrent transfers fair-share the link), restart n processes,
	// read n states back.
	state := d.sc.App.StateBytes
	xfer := d.p.Link.Latency + float64(n)*state/d.p.Link.Bandwidth
	overhead := 2*xfer + d.p.StartupTime(n)

	pol := d.sc.policy()
	ok, payback := pol.DecideRelocation(core.RelocateInput{
		OldRates: oldRates,
		NewRates: newRates,
		IterTime: iterTime,
		Overhead: overhead,
	})
	tr := d.p.Kernel.Tracer()
	if tr.Enabled() {
		verdict := "stay"
		if ok {
			verdict = "swap"
		}
		tr.Emit(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: now,
			IterTime: iterTime, SwapTime: overhead, Payback: payback,
			Verdict: verdict, Detail: "relocation"})
	}
	if !ok {
		return
	}

	d.res.Events = append(d.res.Events, Event{
		T: now, Kind: EventCheckpoint, Iter: iter, From: d.hosts, To: best, Payback: payback,
	})
	d.res.Swaps++

	// Enact: checkpoint write, restart, checkpoint read.
	writeStart := proc.Now()
	d.transferAll(proc, n, state)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: obs.RankRuntime, T: writeStart,
			Dur: proc.Now() - writeStart, Bytes: int64(float64(n) * state), Detail: "checkpoint write"})
	}
	proc.Sleep(d.p.StartupTime(n))
	readStart := proc.Now()
	d.transferAll(proc, n, state)
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: obs.RankRuntime, T: readStart,
			Dur: proc.Now() - readStart, Bytes: int64(float64(n) * state), Detail: "checkpoint read"})
	}
	d.hosts = best
}
