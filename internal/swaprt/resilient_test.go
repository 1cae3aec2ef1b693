package swaprt

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// flakyDecider fails its first failN Decide attempts, then serves resp.
// Reports are dropped and pings succeed (StayDecider's defaults).
type flakyDecider struct {
	StayDecider
	mu       sync.Mutex
	failN    int
	attempts int
	resp     DecideResponse
}

func (f *flakyDecider) Decide(DecideRequest) (DecideResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.attempts++
	if f.attempts <= f.failN {
		return DecideResponse{}, errors.New("manager unreachable")
	}
	return f.resp, nil
}

func (f *flakyDecider) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts
}

// pingableDecider overrides Ping to succeed only once up is set.
type pingableDecider struct {
	flakyDecider
	upMu sync.Mutex
	up   bool
}

func (p *pingableDecider) setUp(v bool) {
	p.upMu.Lock()
	defer p.upMu.Unlock()
	p.up = v
}

func (p *pingableDecider) Ping() error {
	p.upMu.Lock()
	defer p.upMu.Unlock()
	if !p.up {
		return errors.New("ping: manager unreachable")
	}
	return nil
}

func TestResilientRetriesWithinOneCall(t *testing.T) {
	want := DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 3}}}
	prim := &flakyDecider{failN: 2, resp: want}
	d := &ResilientDecider{Primary: prim, MaxAttempts: 3, BaseBackoff: time.Millisecond}
	resp, err := d.Decide(DecideRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swaps) != 1 || resp.Swaps[0] != want.Swaps[0] {
		t.Fatalf("resp = %+v, want %+v", resp, want)
	}
	if prim.calls() != 3 {
		t.Errorf("primary attempts = %d, want 3", prim.calls())
	}
	if d.State() != "closed" {
		t.Errorf("state = %s, want closed", d.State())
	}
}

func TestResilientFallbackWhenExhausted(t *testing.T) {
	prim := &flakyDecider{failN: 1 << 30}
	reg := obs.NewRegistry()
	d := &ResilientDecider{
		Primary:     prim,
		MaxAttempts: 2,
		BaseBackoff: time.Millisecond,
		Metrics:     reg,
	}
	resp, err := d.Decide(DecideRequest{})
	if err != nil {
		t.Fatalf("fallback must not error: %v", err)
	}
	if len(resp.Swaps) != 0 {
		t.Errorf("stay fallback returned swaps: %+v", resp)
	}
	if got := reg.Counter("resilient.fallbacks").Load(); got != 1 {
		t.Errorf("fallbacks = %d, want 1", got)
	}
	if got := reg.Counter("resilient.retries").Load(); got != 1 {
		t.Errorf("retries = %d, want 1", got)
	}
}

func TestResilientCircuitOpensAndProbeCloses(t *testing.T) {
	prim := &pingableDecider{flakyDecider: flakyDecider{failN: 1 << 30}}
	tr := obs.New(0)
	tr.Enable()
	d := &ResilientDecider{
		Primary:       prim,
		MaxAttempts:   1,
		FailThreshold: 2,
		ProbeInterval: 2 * time.Millisecond,
		BaseBackoff:   time.Millisecond,
		Tracer:        tr,
	}
	defer d.Close()

	for i := 0; i < 2; i++ {
		if _, err := d.Decide(DecideRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	if d.State() != "open" {
		t.Fatalf("state after %d failures = %s, want open", 2, d.State())
	}
	attemptsAtOpen := prim.calls()
	// While open, Decide must not touch the primary.
	if _, err := d.Decide(DecideRequest{}); err != nil {
		t.Fatal(err)
	}
	if prim.calls() != attemptsAtOpen {
		t.Error("open circuit still called the primary")
	}

	// Recovery: the background prober notices the manager is back.
	prim.setUp(true)
	deadline := time.Now().Add(2 * time.Second)
	for d.State() != "closed" {
		if time.Now().After(deadline) {
			t.Fatal("circuit never closed after recovery")
		}
		time.Sleep(time.Millisecond)
	}
	// Healthy primary serves again.
	prim.mu.Lock()
	prim.failN = 0
	prim.mu.Unlock()
	if _, err := d.Decide(DecideRequest{}); err != nil {
		t.Fatal(err)
	}
	if prim.calls() <= attemptsAtOpen {
		t.Error("closed circuit did not use the primary")
	}

	var open, closed bool
	for _, ev := range tr.Events() {
		if ev.Kind != obs.KindCircuit {
			continue
		}
		switch ev.Detail {
		case "open":
			open = true
		case "close":
			if !open {
				t.Error("circuit close before open")
			}
			closed = true
		}
	}
	if !open || !closed {
		t.Errorf("trace transitions: open=%v close=%v, want both", open, closed)
	}
}

func TestResilientReportWarmsFallback(t *testing.T) {
	prim := &flakyDecider{failN: 1 << 30}
	fb := NewLocalDecider(core.Greedy())
	d := &ResilientDecider{Primary: prim, Fallback: fb, MaxAttempts: 1, BaseBackoff: time.Millisecond}
	if err := d.Report(ReportMsg{Rank: 3, Now: 1, Rate: 42}); err != nil {
		t.Fatal(err)
	}
	fb.mu.Lock()
	_, ok := fb.hist[3]
	fb.mu.Unlock()
	if !ok {
		t.Error("report did not reach the fallback's history")
	}
}

func TestResilientJitterDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		d := &ResilientDecider{JitterSeed: 7}
		var out []time.Duration
		for i := 1; i <= 5; i++ {
			out = append(out, d.backoff(i))
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
	// Exponential shape survives the jitter: attempt 3 backs off longer
	// than half of attempt 1's ceiling.
	if a[2] <= a[0]/2 {
		t.Errorf("backoff not growing: %v", a)
	}
}
