package clock

import (
	"testing"
	"time"
)

func TestRealClockBasics(t *testing.T) {
	var c Real
	before := c.Now()
	c.Sleep(time.Millisecond)
	if d := c.Since(before); d <= 0 {
		t.Fatalf("Since went backwards: %v", d)
	}
	if !c.AfterFunc(time.Hour, func() {}).Stop() {
		t.Fatal("Stop on a pending real timer reported false")
	}
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real AfterFunc never ran")
	}
}

func TestSecondsFollowsClock(t *testing.T) {
	f := NewFake()
	secs := Seconds(f)
	if got := secs(); got != 0 {
		t.Fatalf("fresh Seconds = %v, want 0", got)
	}
	f.Advance(1500 * time.Millisecond)
	if got := secs(); got != 1.5 {
		t.Fatalf("Seconds after 1.5s advance = %v", got)
	}
	if s := Seconds(nil); s() < 0 {
		t.Fatal("Seconds(nil) must fall back to the wall clock")
	}
}

func TestRealDeadlineScalesWithClock(t *testing.T) {
	// On the wall clock, the deadline is ~d out.
	got := RealDeadline(Real{}, time.Hour)
	if until := time.Until(got); until < 59*time.Minute || until > 61*time.Minute {
		t.Fatalf("Real deadline %v out, want ~1h", until)
	}
	// On a 60x clock, a 1h virtual deadline is ~1min of wall time.
	s := NewScaled(60)
	got = RealDeadline(s, time.Hour)
	if until := time.Until(got); until < 50*time.Second || until > 70*time.Second {
		t.Fatalf("Scaled deadline %v out, want ~1min", until)
	}
	// A Fake clock has no wall mapping: grant the full duration.
	got = RealDeadline(NewFake(), time.Hour)
	if until := time.Until(got); until < 59*time.Minute {
		t.Fatalf("Fake deadline %v out, want ~1h", until)
	}
}

func TestScaledRunsFaster(t *testing.T) {
	s := NewScaled(100)
	start := s.Now()
	wall := time.Now()
	s.Sleep(time.Second) // 10ms real
	if real := time.Since(wall); real > 500*time.Millisecond {
		t.Fatalf("scaled sleep of 1s took %v real", real)
	}
	if virt := s.Since(start); virt < time.Second {
		t.Fatalf("scaled clock advanced only %v during a 1s virtual sleep", virt)
	}
	done := make(chan struct{})
	s.AfterFunc(100*time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scaled AfterFunc never ran")
	}
}

func TestScaledRealDuration(t *testing.T) {
	s := NewScaled(25)
	if got := s.RealDuration(time.Second); got != 40*time.Millisecond {
		t.Fatalf("RealDuration(1s) at 25x = %v, want 40ms", got)
	}
	if got := s.RealDuration(0); got != 0 {
		t.Fatalf("RealDuration(0) = %v", got)
	}
	if got := s.RealDuration(time.Nanosecond); got < time.Nanosecond {
		t.Fatalf("RealDuration rounded a positive duration to %v", got)
	}
	if f := NewScaled(0).Factor(); f != 1 {
		t.Fatalf("NewScaled(0) factor = %v, want 1", f)
	}
}
