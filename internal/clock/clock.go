// Package clock abstracts the wall clock behind an injectable interface
// so everything in the runtime that waits — retry backoff, circuit
// probes, telemetry intervals, fault-plan delays, transfer deadlines —
// can run against a fake or accelerated time source in tests and
// scenario sweeps. The swapvet clockdiscipline rule bans bare time.Now /
// time.Sleep / timer constructors in the core packages, so this package
// is the only sanctioned doorway to the time package (DESIGN.md §16).
package clock

import "time"

// Clock is the subset of package time the runtime is allowed to use.
// Real delegates to the wall clock; Fake and Scaled substitute a
// controlled or compressed timeline.
type Clock interface {
	// Now reports the current instant on this clock's timeline.
	Now() time.Time
	// Since is Now().Sub(t).
	Since(t time.Time) time.Duration
	// Until is t.Sub(Now()).
	Until(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run in its own goroutine after d.
	AfterFunc(d time.Duration, f func()) *Timer
	// NewTimer returns a Timer that delivers on C after d.
	NewTimer(d time.Duration) *Timer
	// NewTicker returns a Ticker that delivers on C every d.
	NewTicker(d time.Duration) *Ticker
}

// Timer mirrors time.Timer across real and fake clocks: C delivers when
// the timer fires (nil for AfterFunc timers) and Stop cancels a pending
// fire, reporting whether it was still pending.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop cancels the timer. It reports whether the call stopped a fire
// that had not yet happened.
func (t *Timer) Stop() bool {
	if t.stop == nil {
		return false
	}
	return t.stop()
}

// Ticker mirrors time.Ticker: C delivers repeatedly until Stop.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop shuts the ticker down. No more ticks are delivered after it
// returns.
func (t *Ticker) Stop() {
	if t.stop != nil {
		t.stop()
	}
}

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

func (Real) Now() time.Time                  { return time.Now() }
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }
func (Real) Until(t time.Time) time.Duration { return time.Until(t) }
func (Real) Sleep(d time.Duration)           { time.Sleep(d) }

func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (Real) AfterFunc(d time.Duration, f func()) *Timer {
	t := time.AfterFunc(d, f)
	return &Timer{stop: t.Stop}
}

func (Real) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

func (Real) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// processStart is the origin of Real's seconds view.
//
//swapvet:ignore clockdiscipline -- anchors the wall clock's seconds view
var processStart = time.Now()

// Or returns clk, or the wall clock when clk is nil: the one place an
// optional Clock field gets its default.
func Or(clk Clock) Clock {
	if clk == nil {
		return Real{}
	}
	return clk
}

// Origin reports the fixed instant clk's seconds view counts from:
// process start for Real (and nil), construction for a Scaled clock,
// the epoch for a Fake. It depends only on the clock, never on when it
// is asked, so every seconds view of one clock is one timeline.
func Origin(clk Clock) time.Time {
	switch c := clk.(type) {
	case *Scaled:
		return c.origin
	case *Fake:
		return fakeEpoch
	}
	return processStart
}

// Seconds adapts a Clock into the float-seconds timestamp source the
// runtime, tracer, telemetry hub and lens use: seconds since Origin(clk)
// on clk's timeline.
func Seconds(clk Clock) func() float64 {
	clk = Or(clk)
	origin := Origin(clk)
	return func() float64 { return clk.Since(origin).Seconds() }
}

// realScaler is implemented by clocks whose timeline runs at a multiple
// of wall time (Scaled). RealDuration translates a duration on the
// clock's timeline into the wall-clock duration it occupies.
type realScaler interface {
	RealDuration(d time.Duration) time.Duration
}

// RealTimeout translates a duration on clk's timeline into the
// wall-clock duration it occupies: compressed on a Scaled clock,
// unchanged on Real and Fake (a fake clock has no wall mapping, so the
// full budget is granted as a safety net). Use it wherever a timeout
// must be handed to the kernel (net.DialTimeout).
func RealTimeout(clk Clock, d time.Duration) time.Duration {
	if s, ok := clk.(realScaler); ok {
		return s.RealDuration(d)
	}
	return d
}

// Wall reports whether clk's timeline moves with the wall clock — Real,
// or Scaled at a fixed multiple of it — so that a kernel deadline from
// RealDeadline falls due when clk reaches the instant it was made for. A
// Fake moves only when told to, and a clock this package does not know
// is taken to do the same.
func Wall(clk Clock) bool {
	switch clk.(type) {
	case Real, *Scaled:
		return true
	}
	return false
}

// RealDeadline converts "d from now on clk's timeline" into a wall-clock
// instant suitable for net.Conn.SetDeadline. Kernel socket deadlines can
// only follow the wall clock, so this is the sanctioned seam between
// virtual timeouts and real I/O: on Real it is time.Now().Add(d); on a
// Scaled clock the virtual duration is compressed by the accel factor;
// on a Fake clock (no real-time mapping) the full d is granted in wall
// time, which keeps the deadline a safety net rather than a trigger.
func RealDeadline(clk Clock, d time.Duration) time.Time {
	//swapvet:ignore clockdiscipline -- kernel socket deadlines are wall-clock by nature
	return time.Now().Add(RealTimeout(clk, d))
}
