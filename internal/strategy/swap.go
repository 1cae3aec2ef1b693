package strategy

import (
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
)

// Swap is MPI process swapping: the application computes on N of the
// allocated hosts; at every iteration boundary the swap manager estimates
// all host rates over the policy's history window and applies the policy
// (core.Policy.Decide) to swap the slowest active processor(s) for the
// fastest spare(s). Each accepted swap transfers the process state over
// the shared link while the application is barriered.
type Swap struct{}

// Name implements Technique.
func (Swap) Name() string { return "swap" }

// Run implements Technique.
func (Swap) Run(p *platform.Platform, sc Scenario) Result {
	return run(p, sc, "swap", equalChunks, swapBoundary)
}

func swapBoundary(d *driver, iter int, iterTime float64, done func()) {
	if iterTime <= 0 {
		done()
		return
	}
	now := d.k.Now()
	rates := d.rates(now)

	// The candidate lists live in driver-owned buffers: the boundary
	// only reads them, so nothing holds them past this call.
	active, spare := d.active[:0], d.spare[:0]
	for r, h := range d.hosts {
		// Candidate ID is the rank index for actives so a decision can
		// be applied to the right process; rate is the host's estimate.
		active = append(active, core.Candidate{ID: r, Rate: rates[h]})
	}
	d.markActive()
	for h, on := range d.isActive {
		if !on {
			spare = append(spare, core.Candidate{ID: h, Rate: rates[h]})
		}
	}
	d.active, d.spare = active, spare

	tr := d.k.Tracer()
	swapTime := d.predictedSwapTime()
	in := core.DecideInput{
		Active:   active,
		Spare:    spare,
		IterTime: iterTime,
		SwapTime: swapTime,
	}
	var swaps []core.SwapPair
	var exp core.Explanation // the random selection explains nothing
	if d.selStream != nil {
		swaps = randomSelect(d.boundary.Policy, d.selStream, active, spare, iterTime, swapTime)
		d.boundary.Record(now, d.epoch, in, len(swaps))
		if tr.Enabled() {
			verdict := "stay"
			if len(swaps) > 0 {
				verdict = "swap"
			}
			tr.Emit(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: now,
				IterTime: iterTime, SwapTime: swapTime, Swaps: len(swaps),
				Verdict: verdict, Detail: "random selection", Epoch: d.epoch})
		}
	} else {
		// Nobody reads the Reason without a tracer; the lens needs only
		// the numbers.
		swaps, exp = d.boundary.Decide(now, d.epoch, in, tr.Enabled())
		if tr.Enabled() {
			tr.Emit(obs.Event{Kind: obs.KindSwapDecision, Rank: obs.RankRuntime, T: now,
				IterTime: iterTime, SwapTime: swapTime, Swaps: len(swaps),
				OldPerf: exp.OldPerf, NewPerf: exp.NewPerf, Payback: exp.Payback,
				Verdict: exp.Verdict, Reason: exp.Reason, Epoch: d.epoch})
		}
	}
	if len(swaps) == 0 {
		done()
		return
	}

	// Enact: all state transfers proceed concurrently over the shared
	// link; the application is paused for the duration. A boundary swaps
	// each active process at most once.
	d.reserveEvents(iter, min(len(active), len(spare)))
	from, to := d.hosts, slices.Clone(d.hosts)
	for _, s := range swaps {
		to[s.Out.ID] = s.In.ID
		d.res.Events = append(d.res.Events, Event{
			T: now, Kind: EventSwap, Iter: iter, Rank: s.Out.ID, From: from, To: to,
			Payback: s.Payback, Gain: s.ProcGain,
		})
	}
	if tr.Enabled() {
		pairs := make([]obs.SwapPair, len(swaps))
		for i, s := range swaps {
			pairs[i] = obs.SwapPair{Out: from[s.Out.ID], In: s.In.ID, Committed: true}
		}
		d.openRecord(now, len(swaps), swapTime, exp.Payback, pairs)
	}
	d.hosts = to
	d.res.Swaps += len(swaps)
	d.actedAt, d.swaps, d.done = now, swaps, done
	if d.swapLandedFn == nil {
		d.swapLandedFn = d.swapLanded
	}
	d.transferAll(len(swaps), d.sc.App.StateBytes, d.swapLandedFn)
}

// swapLanded ends a swap boundary when its last state transfer lands.
// Sim swaps always land: commit the proposed epoch (live convention: a
// decision at epoch e establishes e+1). The round's paid time is its
// transfer, and each pair's transfer takes all of it: they share the link.
func (d *driver) swapLanded() {
	landed := d.k.Now()
	d.epoch++
	d.boundary.Lens.ObserveOutcome(landed, d.epoch, true)
	if tr := d.k.Tracer(); tr.Enabled() {
		for _, s := range d.swaps {
			tr.Emit(obs.Event{Kind: obs.KindStateTransfer, Rank: s.Out.ID, T: d.actedAt,
				Dur: landed - d.actedAt, Peer: s.In.ID,
				Bytes: int64(d.sc.App.StateBytes), Detail: "out", Epoch: d.epoch})
		}
	}
	d.closeRecord(obs.Phases{Transfer: landed - d.actedAt}, int64(d.sc.App.StateBytes))
	d.swaps = nil
	d.done()
}

// openRecord starts the swap record of the round a traced boundary
// proposed at now: its decision's predictions and its pairs.
func (d *driver) openRecord(now float64, swaps int, swapTime, payback float64, pairs []obs.SwapPair) {
	d.record = &obs.Event{Kind: obs.KindSwapRecord, Rank: obs.RankRuntime, T: now,
		Epoch: d.epoch + 1, Swaps: swaps, SwapTime: swapTime, Payback: payback,
		Verdict: obs.VerdictCommit, Round: &obs.SwapRound{Pairs: pairs}}
}

// closeRecord emits the open swap record with the round's phases, which
// sum to its paid time, and the bytes each of its pairs moved in the
// transfer phase; a relocation, which has no pairs, states them itself. A
// simulated round always commits.
func (d *driver) closeRecord(p obs.Phases, bytes int64) {
	if d.record == nil {
		return
	}
	pairs := d.record.Round.Pairs
	for i := range pairs {
		pairs[i].Bytes, pairs[i].Transfer = bytes, p.Transfer
	}
	if len(pairs) == 0 {
		d.record.Bytes = bytes
	}
	d.record.Round.Phases, d.record.Dur = p, p.Paid()
	d.k.Tracer().Emit(*d.record)
	d.record = nil
}

// randomSelect is the pair-selection ablation: instead of pairing the
// slowest active with the fastest spare, it walks actives and spares in
// random order and accepts each pair that clears the policy's gates. The
// gates themselves (improvement thresholds, payback) are unchanged, so
// any difference against the paper's rule is attributable to selection
// alone.
func randomSelect(pol core.Policy, st *rng.Stream, active, spare []core.Candidate,
	iterTime, swapTime float64) []core.SwapPair {

	rates := make([]float64, len(active))
	for i, c := range active {
		rates[i] = c.Rate
	}
	ai := st.Perm(len(active))
	si := st.Perm(len(spare))
	var out []core.SwapPair
	used := 0
	for _, a := range ai {
		if used >= len(si) {
			break
		}
		pair, ok := pol.EvaluatePair(active[a], spare[si[used]], rates, a,
			iterTime, swapTime, nil)
		if !ok {
			continue
		}
		out = append(out, pair)
		rates[a] = spare[si[used]].Rate
		used++
	}
	return out
}
