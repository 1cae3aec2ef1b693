package platform

import (
	"fmt"
	"math"

	"repro/internal/simkern"
)

// Link is the single shared network link of the paper's platform:
// latency Latency seconds, bandwidth Bandwidth bytes/s, with all
// concurrent transfers fair-sharing the bandwidth (fluid model). Messages
// therefore "compete for a fixed amount of communication bandwidth, and
// collisions delay message transmission" exactly as in the paper's
// simulator.
type Link struct {
	k         *simkern.Kernel
	Latency   float64
	Bandwidth float64

	// pending holds started transfers still paying the latency, active
	// the ones draining; both are in start order. Every transfer pays
	// the same latency, so transfers arrive in the order they started
	// and one arrival callback serves them all.
	pending    []transfer
	arrived    int // pending[:arrived] have moved on
	active     []transfer
	finished   []func() // complete's scratch
	lastUpdate float64
	wake       simkern.Event
	// The two callbacks the link schedules, bound once: evaluating a
	// method value allocates.
	arriveFn, completeFn func()

	// TotalBytes accumulates all bytes ever carried, for tests and
	// reporting.
	TotalBytes float64
}

type transfer struct {
	remaining float64
	done      func()
}

// NewLink creates a link bound to kernel k.
func NewLink(k *simkern.Kernel, latency, bandwidth float64) *Link {
	if bandwidth <= 0 || latency < 0 {
		panic(fmt.Sprintf("platform: link latency=%g bandwidth=%g", latency, bandwidth))
	}
	l := &Link{k: k, Latency: latency, Bandwidth: bandwidth}
	l.arriveFn, l.completeFn = l.arrive, l.complete
	return l
}

// InFlight reports the number of transfers currently sharing the link.
func (l *Link) InFlight() int { return len(l.active) }

// Start begins a transfer of the given bytes and calls done (from kernel
// context) when the last byte arrives. The latency is paid up front, then
// the payload drains at the fair share of the bandwidth. done is never
// called synchronously. Zero-byte transfers still pay the latency.
func (l *Link) Start(bytes float64, done func()) {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("platform: transfer of %g bytes", bytes))
	}
	l.pending = append(l.pending, transfer{remaining: bytes, done: done})
	l.k.After(l.Latency, l.arriveFn)
}

// arrive moves the oldest pending transfer onto the wire.
func (l *Link) arrive() {
	tr := l.pending[l.arrived]
	l.pending[l.arrived] = transfer{}
	if l.arrived++; l.arrived == len(l.pending) {
		l.pending, l.arrived = l.pending[:0], 0
	}
	if tr.remaining == 0 {
		tr.done()
		return
	}
	l.settle()
	l.active = append(l.active, tr)
	l.TotalBytes += tr.remaining
	l.reschedule()
}

// Transfer blocks the calling simulated process until a transfer of bytes
// completes.
func (l *Link) Transfer(p *simkern.Proc, bytes float64) {
	l.Start(bytes, func() { p.Unpark() })
	p.Park()
}

// TransferTimeAlone reports how long a transfer of the given bytes takes
// on an otherwise idle link — the paper's swap-time model
// alpha + size/beta. It does not perform a transfer.
func (l *Link) TransferTimeAlone(bytes float64) float64 {
	return l.Latency + bytes/l.Bandwidth
}

// settle advances all in-flight transfers to the current virtual time at
// the rate they have been receiving since the last settlement.
func (l *Link) settle() {
	now := l.k.Now()
	if len(l.active) > 0 {
		rate := l.Bandwidth / float64(len(l.active))
		dt := now - l.lastUpdate
		for i := range l.active {
			l.active[i].remaining -= rate * dt
		}
	}
	l.lastUpdate = now
}

// reschedule cancels any pending completion event and schedules one at
// the earliest time a transfer will finish at current rates.
func (l *Link) reschedule() {
	l.wake.Cancel()
	l.wake = simkern.Event{}
	if len(l.active) == 0 {
		return
	}
	rate := l.Bandwidth / float64(len(l.active))
	minRem := math.Inf(1)
	for _, tr := range l.active {
		if tr.remaining < minRem {
			minRem = tr.remaining
		}
	}
	if minRem < 0 {
		minRem = 0
	}
	l.wake = l.k.After(minRem/rate, l.completeFn)
}

// complete finishes every transfer whose remaining bytes have drained.
func (l *Link) complete() {
	l.wake = simkern.Event{}
	l.settle()
	// Tolerance scaled to the payloads so float drift never strands a
	// transfer: anything within a microsecond's worth of bandwidth of
	// zero is done.
	eps := l.Bandwidth * 1e-6
	// active is in start order, so the callbacks collected here fire in
	// that order too, and the survivors keep theirs.
	finished, kept := l.finished[:0], l.active[:0]
	for _, tr := range l.active {
		if tr.remaining <= eps {
			finished = append(finished, tr.done)
		} else {
			kept = append(kept, tr)
		}
	}
	for i := len(kept); i < len(l.active); i++ {
		l.active[i] = transfer{}
	}
	l.active = kept
	l.reschedule()
	// Callbacks run after the link state is consistent; they may start
	// new transfers.
	for i, done := range finished {
		finished[i] = nil
		done()
	}
	l.finished = finished[:0]
}
