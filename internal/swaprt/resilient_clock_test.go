package swaprt

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin ResilientDecider's timing behavior on an injected fake
// clock: the schedules below span virtual seconds, yet the tests finish
// in milliseconds of wall time because every wait goes through Clock.
// TestResilientJitterDeterministic (resilient_test.go) already proves
// backoff() is a pure function of the seed, which is what lets these
// tests predict the schedule exactly.

// TestResilientBackoffScheduleOnFakeClock drives one exhausted Decide
// call on an auto-advancing fake clock and checks the virtual time it
// consumed equals the jittered backoff before its one retry, reproduced
// from a second decider on the same seed.
func TestResilientBackoffScheduleOnFakeClock(t *testing.T) {
	fake := clock.NewFakeAuto()
	prim := &flakyDecider{failN: 1 << 30}
	d := &ResilientDecider{Primary: prim, Clock: fake}
	start := fake.Now()
	if _, err := d.Decide(DecideRequest{}); err != nil {
		t.Fatalf("fallback must not error: %v", err)
	}
	elapsed := fake.Since(start)

	// Replay the jitter stream: backoff() consumes the seeded rng in
	// retry order, so a fresh decider produces the identical schedule.
	if want := (&ResilientDecider{}).backoff(); elapsed != want {
		t.Fatalf("virtual time consumed = %v, want exact schedule %v", elapsed, want)
	}
	if prim.calls() != resilientAttempts {
		t.Errorf("primary attempts = %d, want %d", prim.calls(), resilientAttempts)
	}
}

// TestResilientProbeTickerOnFakeClock runs the background recovery
// prober on a fake clock: each Advance by the probe cadence fires one
// probe tick, and the first successful ping closes the circuit — no real
// time is spent waiting for the cadence.
func TestResilientProbeTickerOnFakeClock(t *testing.T) {
	fake := clock.NewFakeAuto() // the retries' sleeps advance it themselves
	prim := &pingableDecider{flakyDecider: flakyDecider{failN: 1 << 30}}
	d := &ResilientDecider{Primary: prim, Clock: fake}
	defer d.Close()

	for i := 0; i < resilientThreshold; i++ {
		if _, err := d.Decide(DecideRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if d.State() != "open" {
		t.Fatalf("state = %s, want open", d.State())
	}
	// The probe loop's ticker is the only fake-clock waiter; once it is
	// registered, ticks are under this test's control.
	fake.BlockUntilWaiters(1)

	// A tick while the manager is still down must not close the circuit.
	fake.Advance(resilientProbe)
	if d.State() != "open" {
		t.Fatalf("state after failed probe = %s, want open", d.State())
	}

	prim.setUp(true)
	deadline := time.Now().Add(2 * time.Second)
	for d.State() != "closed" {
		if time.Now().After(deadline) {
			t.Fatal("circuit never closed after recovery despite probe ticks")
		}
		fake.Advance(resilientProbe)
		time.Sleep(time.Millisecond)
	}
}

// TestResilientScheduleCostsNoWallTime is the stopwatch guard: a few
// hundred exhausted Decide calls, each paying its retry's backoff, add
// up to seconds of virtual time and must complete in essentially zero
// wall time on the fake clock. A regression that reintroduces a bare
// time.Sleep anywhere on the Decide path blows the wall budget
// immediately.
func TestResilientScheduleCostsNoWallTime(t *testing.T) {
	const (
		calls      = 200
		wallBudget = 500 * time.Millisecond
	)
	fake := clock.NewFakeAuto()
	virtStart := fake.Now()
	wallStart := time.Now()
	for i := 0; i < calls; i++ {
		// A fresh decider per call: a closed circuit retries every time.
		d := &ResilientDecider{Primary: &flakyDecider{failN: 1 << 30}, Clock: fake}
		if _, err := d.Decide(DecideRequest{}); err != nil {
			t.Fatalf("fallback must not error: %v", err)
		}
	}
	wall := time.Since(wallStart)
	virt := fake.Since(virtStart)
	// Jitter never drops a backoff below half of resilientBackoff.
	if wantVirtMin := calls * resilientBackoff / 2; virt < wantVirtMin {
		t.Errorf("virtual schedule %v, want >= %v — backoff not exercised", virt, wantVirtMin)
	}
	if wall > wallBudget {
		t.Errorf("schedule of %v virtual cost %v wall time, want < %v", virt, wall, wallBudget)
	}
}
