package strategy

import "repro/internal/platform"

// DLB is idealized dynamic load balancing: at every iteration boundary
// the total work is repartitioned so iteration times are perfectly
// balanced given each processor's performance at that moment. Following
// the paper, the redistribution itself is free ("we do not account for
// the overhead of doing the actual load balancing and assume that it is
// instantaneous"), so simulated DLB times are lower bounds. DLB is
// restricted to the initial processor set: its performance "is limited by
// the achievable performance on the processors that are used".
type DLB struct{}

// Name implements Technique.
func (DLB) Name() string { return "dlb" }

// Run implements Technique.
func (DLB) Run(p *platform.Platform, sc Scenario) Result {
	return run(p, sc, "dlb", balancedChunks, dlbBoundary)
}

// balancedChunks partitions the total iteration work proportionally to
// the hosts' instantaneous rates at time t.
func balancedChunks(d *driver, t float64) []float64 {
	n := d.sc.Active
	total := d.sc.App.TotalWorkPerIter(n)
	rates := make([]float64, n)
	sum := 0.0
	for r := 0; r < n; r++ {
		rates[r] = d.p.Hosts[d.hosts[r]].RateAt(t)
		sum += rates[r]
	}
	chunks := make([]float64, n)
	for r := 0; r < n; r++ {
		chunks[r] = total * rates[r] / sum
	}
	return chunks
}

func dlbBoundary(d *driver, iter int, iterTime float64, done func()) {
	now := d.k.Now()
	d.chunks = balancedChunks(d, now)
	d.reserveEvents(iter, 1)
	d.res.Events = append(d.res.Events, Event{T: now, Kind: EventRebalance})
	done()
}
