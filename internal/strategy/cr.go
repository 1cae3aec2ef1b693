package strategy

import (
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
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

func crBoundary(d *driver, iter int, iterTime float64, done func()) {
	if iterTime <= 0 {
		done()
		return
	}
	now := d.k.Now()
	rates := d.rates(now)
	n := d.sc.Active

	if d.best == nil {
		d.best, d.relocRates = make([]int, 0, n), make([]float64, 2*n)
	}
	// Best candidate set: the n hosts with the highest estimated rates,
	// ties to the lower ID: hosts are offered in ID order and inserted
	// into the sorted prefix, where an equal rate displaces nothing.
	best := d.best[:0]
	for h, r := range rates {
		if len(best) == n {
			if r <= rates[best[n-1]] {
				continue
			}
			best = best[:n-1]
		}
		j := len(best)
		best = append(best, h)
		for ; j > 0 && rates[best[j-1]] < r; j-- {
			best[j] = best[j-1]
		}
		best[j] = h
	}
	d.best = best

	// Both sets hold n distinct hosts: they are equal when every best
	// host is already active.
	d.markActive()
	same := true
	for _, h := range best {
		same = same && d.isActive[h]
	}
	if same {
		done()
		return
	}

	oldRates, newRates := d.relocRates[:n], d.relocRates[n:]
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
	tr := d.k.Tracer()
	if tr.Enabled() {
		verdict := "stay"
		if ok {
			verdict = "swap"
		}
		tr.Emit(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: now,
			IterTime: iterTime, SwapTime: overhead, Payback: payback,
			Verdict: verdict, Detail: "relocation", Epoch: d.epoch})
	}
	if !ok {
		done()
		return
	}

	d.reserveEvents(iter, 1)
	to := slices.Clone(best)
	d.res.Events = append(d.res.Events, Event{
		T: now, Kind: EventCheckpoint, Iter: iter, From: d.hosts, To: to, Payback: payback,
	})
	d.res.Swaps++
	if tr.Enabled() {
		d.openRecord(now, 0, overhead, payback, nil)
	}

	// Enact: checkpoint write, restart, checkpoint read.
	d.actedAt, d.relocTo, d.done = now, to, done
	if d.crWrittenFn == nil {
		d.crWrittenFn, d.crRestartedFn, d.crReadFn = d.crWritten, d.crRestarted, d.crRead
	}
	d.transferAll(n, state, d.crWrittenFn)
}

// crWritten restarts the application once the checkpoint is written.
func (d *driver) crWritten() {
	d.crLeg(d.actedAt, "checkpoint write")
	d.k.After(d.p.StartupTime(d.sc.Active), d.crRestartedFn)
}

// crRestarted reads the checkpoint back on the restarted processes.
func (d *driver) crRestarted() {
	d.readStart = d.k.Now()
	d.transferAll(d.sc.Active, d.sc.App.StateBytes, d.crReadFn)
}

// crRead ends a relocation on the new hosts once the checkpoint is read,
// committing the proposed epoch. The relocation's paid time is its two
// checkpoint legs and the restart between them.
func (d *driver) crRead() {
	d.crLeg(d.readStart, "checkpoint read")
	d.hosts, d.relocTo = d.relocTo, nil
	d.epoch++
	restart := d.p.StartupTime(d.sc.Active)
	d.closeRecord(obs.Phases{Transfer: d.k.Now() - d.actedAt - restart, Rebuild: restart})
	d.done()
}

// crLeg traces one checkpoint transfer phase, from start to now, under the
// proposed epoch.
func (d *driver) crLeg(start float64, detail string) {
	if tr := d.k.Tracer(); tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: obs.RankRuntime, T: start, Dur: d.k.Now() - start,
			Bytes: int64(float64(d.sc.Active) * d.sc.App.StateBytes), Detail: detail, Epoch: d.epoch + 1})
	}
}
