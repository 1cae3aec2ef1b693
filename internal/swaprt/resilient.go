package swaprt

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// ResilientDecider wraps a primary Decider (typically a RemoteDecider)
// with bounded retry, exponential backoff with jitter, and a circuit
// breaker that falls back to a local decider when the primary keeps
// failing. Losing the decision service then degrades the run to local
// (or "stay") decisions instead of aborting it.
//
// While the circuit is open, a background goroutine pings the primary
// every ProbeInterval and closes the circuit on the first success. Every
// transition emits a Circuit trace event.
//
// It is the one wrapper that does not embed Forward: it has two places
// to forward to, so where each call goes is written down per method.
//
// The zero value of every tuning field selects a sensible default, so
// ResilientDecider{Primary: d, Fallback: f} is ready to use. Safe for
// use from one leader plus the background prober; Report may be called
// concurrently by swap handlers.
type ResilientDecider struct {
	// Primary is the preferred decision service. While the circuit is
	// open a configured Resolver may replace it (leader failover), so
	// internal paths read it via primary(); external code must not
	// mutate it after the first Decide.
	Primary Decider
	// Fallback decides while the circuit is open (and when a closed-
	// circuit call exhausts its retries). Nil selects StayDecider.
	Fallback Decider

	// Resolver, when set, re-resolves the decision service while the
	// circuit is open: each probe tick asks it for the current leader
	// (e.g. by reading the manager lease) and, when the candidate
	// answers a ping, installs it as the new primary and closes the
	// circuit. This turns a manager failover — the old leader is gone
	// for good, a standby holds the lease at a new address — into a
	// recovery instead of a permanent fallback to local policy.
	Resolver func() (Decider, error)

	// MaxAttempts bounds the tries per Decide call against the primary
	// (first call + retries). <= 0 selects 3.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry, doubling each
	// further retry. <= 0 selects 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry sleep. <= 0 selects 500ms.
	MaxBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream (each backoff is
	// scaled by a factor in [0.5, 1.5)). 0 selects seed 1.
	JitterSeed int64

	// FailThreshold is the number of consecutive failed Decide calls
	// (each already retried MaxAttempts times) that opens the circuit.
	// <= 0 selects 3.
	FailThreshold int
	// ProbeInterval is the background ping cadence while open. <= 0
	// selects 250ms.
	ProbeInterval time.Duration

	// Clock drives every wait in the decider — retry backoff and the
	// probe ticker — so tests advance a fake clock instead of paying the
	// schedule in real seconds. Nil means clock.Real.
	Clock clock.Clock

	// Tracer receives Circuit transition events (nil-safe).
	Tracer *obs.Tracer
	// OnCircuit, if set, receives every circuit transition (the durable
	// manager store records them via this hook). Called with the
	// decider's lock held: the hook must not call back into the decider.
	OnCircuit func(transition, reason string)
	// Logf, if set, receives retry/fallback diagnostics.
	Logf func(format string, args ...any)
	// Metrics, if set, counts retries, fallback decisions and circuit
	// transitions under "resilient.*".
	Metrics *obs.Registry

	mu      sync.Mutex
	rng     *rand.Rand
	open    bool // the circuit: primary bypassed until a probe succeeds
	fails   int
	probing bool
	stopCh  chan struct{}
	closed  bool
}

func (d *ResilientDecider) logf(format string, args ...any) {
	if d.Logf != nil {
		d.Logf(format, args...)
	}
}

func (d *ResilientDecider) count(name string) {
	if d.Metrics != nil {
		d.Metrics.Counter("resilient." + name).Inc()
	}
}

func (d *ResilientDecider) maxAttempts() int {
	if d.MaxAttempts > 0 {
		return d.MaxAttempts
	}
	return 3
}

func (d *ResilientDecider) failThreshold() int {
	if d.FailThreshold > 0 {
		return d.FailThreshold
	}
	return 3
}

func (d *ResilientDecider) probeInterval() time.Duration {
	if d.ProbeInterval > 0 {
		return d.ProbeInterval
	}
	return 250 * time.Millisecond
}

func (d *ResilientDecider) fallback() Decider {
	if d.Fallback != nil {
		return d.Fallback
	}
	return StayDecider{}
}

// primary reads the current primary under the lock: the probe loop may
// have swapped in a re-resolved leader.
func (d *ResilientDecider) primary() Decider {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.Primary
}

// primaryIfClosed returns the primary while the circuit is closed, nil
// while it is open.
func (d *ResilientDecider) primaryIfClosed() Decider {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.open {
		return nil
	}
	return d.Primary
}

// backoff computes the jittered sleep before retry attempt i (1-based).
func (d *ResilientDecider) backoff(i int) time.Duration {
	base := d.BaseBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	maxB := d.MaxBackoff
	if maxB <= 0 {
		maxB = 500 * time.Millisecond
	}
	b := base << (i - 1)
	if b > maxB || b <= 0 {
		b = maxB
	}
	d.mu.Lock()
	if d.rng == nil {
		seed := d.JitterSeed
		if seed == 0 {
			seed = 1
		}
		d.rng = rand.New(rand.NewSource(seed))
	}
	jitter := 0.5 + d.rng.Float64()
	d.mu.Unlock()
	return time.Duration(float64(b) * jitter)
}

// Decide implements Decider: try the primary (with retries) while the
// circuit is closed, otherwise — once open, the background prober owns
// recovery — decide locally via the fallback.
func (d *ResilientDecider) Decide(req DecideRequest) (DecideResponse, error) {
	if d.primaryIfClosed() != nil {
		resp, err := d.tryPrimary(req)
		if err == nil {
			d.mu.Lock()
			d.fails = 0
			d.mu.Unlock()
			return resp, nil
		}
		d.onFailure(err)
		d.logf("swaprt: resilient: primary decide failed (%v); deciding locally", err)
	}
	d.count("fallbacks")
	return d.fallback().Decide(req)
}

// tryPrimary runs the bounded retry loop against the primary.
func (d *ResilientDecider) tryPrimary(req DecideRequest) (DecideResponse, error) {
	var lastErr error
	for i := 0; i < d.maxAttempts(); i++ {
		if i > 0 {
			d.count("retries")
			clock.Or(d.Clock).Sleep(d.backoff(i))
		}
		resp, err := d.primary().Decide(req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		d.logf("swaprt: resilient: primary attempt %d/%d: %v", i+1, d.maxAttempts(), err)
	}
	return DecideResponse{}, lastErr
}

// onFailure counts one failed closed-circuit Decide and, at the
// threshold, opens the circuit and starts the prober.
func (d *ResilientDecider) onFailure(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fails++
	if d.fails < d.failThreshold() {
		return
	}
	d.open = true
	d.emit("open", err.Error())
	if !d.probing && !d.closed {
		d.probing = true
		if d.stopCh == nil {
			d.stopCh = make(chan struct{})
		}
		go d.probeLoop(d.stopCh)
	}
}

// emit records a Circuit transition. Caller holds d.mu.
func (d *ResilientDecider) emit(transition, reason string) {
	d.count("circuit_" + transition)
	d.Tracer.EmitNow(obs.Event{Kind: obs.KindCircuit, Rank: obs.RankRuntime,
		Detail: transition, Reason: reason})
	if d.OnCircuit != nil {
		d.OnCircuit(transition, reason)
	}
	d.logf("swaprt: resilient: circuit %s (%s)", transition, reason)
}

// probeLoop runs while the circuit is open. Each tick it tries, in
// order: the Resolver (is there a current leader — possibly a new one —
// and does it answer?), then the existing primary's own Ping. The first
// success installs the answering decider as primary, closes the circuit
// and exits the loop.
func (d *ResilientDecider) probeLoop(stop <-chan struct{}) {
	t := clock.Or(d.Clock).NewTicker(d.probeInterval())
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if next, ok := d.probeOnce(); ok {
				d.recover(next)
				return
			}
		}
	}
}

// probeOnce makes one recovery attempt and returns the decider to
// install (nil = keep the current primary) and whether it succeeded.
func (d *ResilientDecider) probeOnce() (Decider, bool) {
	if d.Resolver != nil {
		cand, err := d.Resolver()
		if err != nil {
			d.logf("swaprt: resilient: resolve leader: %v", err)
		} else if cand != nil && cand.Ping() == nil {
			return cand, true
		}
	}
	return nil, d.primary().Ping() == nil
}

// recover installs the probed decider (when non-nil) and closes the
// circuit.
func (d *ResilientDecider) recover(next Decider) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fails = 0
	d.probing = false
	reason := "probe succeeded"
	if next != nil {
		d.Primary = next
		reason = "leader re-resolved"
	}
	d.open = false
	d.emit("close", reason)
}

// Report implements Decider: measurements go to the primary while the
// circuit is closed (errors are logged, never circuit-tripping — reports
// are advisory), and always to the fallback, so degraded-mode decisions
// see warm measurements.
func (d *ResilientDecider) Report(r ReportMsg) error {
	if primary := d.primaryIfClosed(); primary != nil {
		if err := primary.Report(r); err != nil {
			d.count("report_errors")
			d.logf("swaprt: resilient: primary report: %v", err)
		}
	}
	return d.fallback().Report(r)
}

// ReportOutcome implements Decider: the leader's swap-outcome verdict
// goes to the primary while the circuit is closed and, like Report,
// always to the fallback, whose lens may have armed the prediction it
// closes. A primary failure is logged, never circuit-tripping — a
// manager that misses an outcome reconciles from the next decide's epoch.
func (d *ResilientDecider) ReportOutcome(o OutcomeMsg) error {
	if primary := d.primaryIfClosed(); primary != nil {
		if err := primary.ReportOutcome(o); err != nil {
			d.count("outcome_errors")
			d.logf("swaprt: resilient: primary outcome report: %v", err)
		}
	}
	return d.fallback().ReportOutcome(o)
}

// Ping implements Decider: the primary's liveness, whatever the circuit
// position — the question the probe loop asks.
func (d *ResilientDecider) Ping() error { return d.primary().Ping() }

// State reports the circuit position as "closed" or "open".
func (d *ResilientDecider) State() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.open {
		return "open"
	}
	return "closed"
}

// Close stops the background prober, if any. The decider remains usable
// (it just no longer recovers automatically).
func (d *ResilientDecider) Close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	if d.stopCh != nil {
		close(d.stopCh)
	}
}
