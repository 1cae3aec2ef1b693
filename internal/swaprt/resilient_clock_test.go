package swaprt

import (
	"testing"
	"time"

	"repro/internal/clock"
)

// These tests pin ResilientDecider's timing behavior on an injected fake
// clock: the schedules below span virtual seconds to minutes, yet the
// tests finish in milliseconds of wall time because every wait goes
// through Clock. TestResilientJitterDeterministic (resilient_test.go)
// already proves backoff() is a pure function of the seed, which is what
// lets these tests predict the schedule exactly.

// TestResilientBackoffScheduleOnFakeClock drives one exhausted Decide
// call on an auto-advancing fake clock and checks the virtual time it
// consumed equals the exact jittered backoff schedule, reproduced from
// a second decider with the same seed.
func TestResilientBackoffScheduleOnFakeClock(t *testing.T) {
	fake := clock.NewFakeAuto()
	prim := &flakyDecider{failN: 1 << 30}
	d := &ResilientDecider{
		Primary:     prim,
		MaxAttempts: 4,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		JitterSeed:  7,
		Clock:       fake,
	}
	start := fake.Now()
	if _, err := d.Decide(DecideRequest{}); err != nil {
		t.Fatalf("fallback must not error: %v", err)
	}
	elapsed := fake.Since(start)

	// Replay the jitter stream: backoff() consumes the seeded rng in
	// attempt order, so a fresh decider with the same tuning produces
	// the identical schedule.
	ref := &ResilientDecider{
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  time.Second,
		JitterSeed:  7,
	}
	var want time.Duration
	for i := 1; i < 4; i++ { // MaxAttempts 4 → 3 retries → 3 sleeps
		want += ref.backoff(i)
	}
	if elapsed != want {
		t.Fatalf("virtual time consumed = %v, want exact schedule %v", elapsed, want)
	}
	if prim.calls() != 4 {
		t.Errorf("primary attempts = %d, want 4", prim.calls())
	}
}

// TestResilientProbeTickerOnFakeClock runs the background recovery
// prober on a fake clock: each Advance by ProbeInterval fires one probe
// tick, and the first successful ping closes the circuit — no real
// quarter-seconds are spent waiting for the cadence.
func TestResilientProbeTickerOnFakeClock(t *testing.T) {
	fake := clock.NewFake()
	prim := &pingableDecider{flakyDecider: flakyDecider{failN: 1 << 30}}
	d := &ResilientDecider{
		Primary:       prim,
		MaxAttempts:   1,
		FailThreshold: 1,
		ProbeInterval: 250 * time.Millisecond,
		Clock:         fake,
	}
	defer d.Close()

	if _, err := d.Decide(DecideRequest{}); err != nil {
		t.Fatal(err)
	}
	if d.State() != "open" {
		t.Fatalf("state = %s, want open", d.State())
	}
	// The probe loop's ticker is the only fake-clock waiter; once it is
	// registered, ticks are under this test's control.
	fake.BlockUntilWaiters(1)

	// A tick while the manager is still down must not close the circuit.
	fake.Advance(250 * time.Millisecond)
	if d.State() != "open" {
		t.Fatalf("state after failed probe = %s, want open", d.State())
	}

	prim.setUp(true)
	deadline := time.Now().Add(2 * time.Second)
	for d.State() != "closed" {
		if time.Now().After(deadline) {
			t.Fatal("circuit never closed after recovery despite probe ticks")
		}
		fake.Advance(250 * time.Millisecond)
		time.Sleep(time.Millisecond)
	}
}

// TestResilientScheduleCostsNoWallTime is the stopwatch guard: retry
// schedules that would take tens of virtual seconds — or minutes — must
// complete in essentially zero wall time on the fake clock. A regression
// that reintroduces a bare time.Sleep anywhere on the Decide path blows
// the wall budget immediately.
func TestResilientScheduleCostsNoWallTime(t *testing.T) {
	cases := []struct {
		name        string
		attempts    int
		base, maxB  time.Duration
		wantVirtMin time.Duration // half the un-jittered sleep sum (jitter ≥ 0.5)
	}{
		{"second-scale backoff", 5, time.Second, 30 * time.Second, 7 * time.Second},
		{"capped ten-second backoff", 4, 10 * time.Second, 10 * time.Second, 15 * time.Second},
		{"minute-scale backoff", 3, time.Minute, 10 * time.Minute, 90 * time.Second},
	}
	const wallBudget = 500 * time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fake := clock.NewFakeAuto()
			prim := &flakyDecider{failN: 1 << 30}
			d := &ResilientDecider{
				Primary:     prim,
				MaxAttempts: tc.attempts,
				BaseBackoff: tc.base,
				MaxBackoff:  tc.maxB,
				JitterSeed:  11,
				Clock:       fake,
			}
			virtStart := fake.Now()
			wallStart := time.Now()
			if _, err := d.Decide(DecideRequest{}); err != nil {
				t.Fatalf("fallback must not error: %v", err)
			}
			wall := time.Since(wallStart)
			virt := fake.Since(virtStart)
			if virt < tc.wantVirtMin {
				t.Errorf("virtual schedule %v, want >= %v — backoff not exercised", virt, tc.wantVirtMin)
			}
			if wall > wallBudget {
				t.Errorf("schedule of %v virtual cost %v wall time, want < %v", virt, wall, wallBudget)
			}
		})
	}
}
