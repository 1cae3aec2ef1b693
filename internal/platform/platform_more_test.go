package platform

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/simkern"
)

func TestHostString(t *testing.T) {
	h := replayHost(500e6, nil, 0)
	if s := h.String(); !strings.Contains(s, "500 MFlop/s") {
		t.Fatalf("String = %q", s)
	}
}

func TestComputeDuration(t *testing.T) {
	h := replayHost(100e6, nil, 0)
	if d := h.ComputeDuration(10, 300e6); d != 3 {
		t.Fatalf("duration = %g", d)
	}
}

func TestComputeFinishPanicsOnBadWork(t *testing.T) {
	h := replayHost(100e6, nil, 0)
	for _, w := range []float64{-1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ComputeFinish(%g) did not panic", w)
				}
			}()
			h.ComputeFinish(0, w)
		}()
	}
}

func TestNewHostValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHost(0, 0, nil)
}

func TestLinkValidation(t *testing.T) {
	k := simkern.New()
	for _, c := range []struct{ lat, bw float64 }{{-1, 1}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLink(%g,%g) did not panic", c.lat, c.bw)
				}
			}()
			NewLink(k, c.lat, c.bw)
		}()
	}
}

func TestLinkNegativeBytesPanics(t *testing.T) {
	k := simkern.New()
	l := NewLink(k, 0, 1)
	k.At(0, func() {
		defer func() {
			if recover() == nil {
				t.Error("negative transfer did not panic")
			}
		}()
		l.Start(-5, func() {})
	})
	k.Run()
}

func TestLinkInFlight(t *testing.T) {
	k := simkern.New()
	l := NewLink(k, 0, 1e6)
	l.Start(1e6, func() {})
	l.Start(1e6, func() {})
	k.RunUntil(0.5)
	if l.InFlight() != 2 {
		t.Fatalf("InFlight = %d", l.InFlight())
	}
	k.Run()
	if l.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", l.InFlight())
	}
}

// Property: the fluid link conserves bandwidth — for any set of transfer
// arrivals, the total bytes delivered divided by the active time never
// exceeds the link bandwidth, and every transfer completes.
func TestLinkConservationProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		k := simkern.New()
		const bw = 1e6
		l := NewLink(k, 0, bw)
		done := 0
		totalBytes := 0.0
		var lastEnd float64
		for _, r := range raw {
			at := float64(r%100) / 10
			bytes := float64(r%977+1) * 1e3
			totalBytes += bytes
			k.At(at, func() {
				l.Start(bytes, func() {
					done++
					if k.Now() > lastEnd {
						lastEnd = k.Now()
					}
				})
			})
		}
		k.Run()
		if done != len(raw) {
			return false
		}
		// All bytes moved within [firstStart, lastEnd]; lastEnd >= total/bw
		// because the link can never beat its bandwidth.
		return lastEnd >= totalBytes/bw-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with a single transfer, the fluid link is exactly
// latency + bytes/bandwidth.
func TestLinkSingleTransferExactProperty(t *testing.T) {
	f := func(latRaw, bytesRaw uint16) bool {
		lat := float64(latRaw%1000) / 1e4
		bytes := float64(bytesRaw%9999+1) * 1e3
		k := simkern.New()
		l := NewLink(k, lat, 6e6)
		var doneAt float64
		l.Start(bytes, func() { doneAt = k.Now() })
		k.Run()
		want := l.TransferTimeAlone(bytes)
		return math.Abs(doneAt-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPlatformValidation(t *testing.T) {
	k := simkern.New()
	bad := []Config{
		{NumHosts: 0, SpeedMin: 1, SpeedMax: 2, Bandwidth: 1},
		{NumHosts: 1, SpeedMin: 0, SpeedMax: 2, Bandwidth: 1},
		{NumHosts: 1, SpeedMin: 3, SpeedMax: 2, Bandwidth: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			New(k, cfg, rng.NewSource(1))
		}()
	}
}

func TestPlatformNilLoadModelDefaultsIdle(t *testing.T) {
	k := simkern.New()
	cfg := Default(2, nil)
	p := New(k, cfg, rng.NewSource(1))
	if p.Hosts[0].LoadAt(1000) != 0 {
		t.Fatal("nil load model not idle")
	}
}

func TestFastestAtTooManyPanics(t *testing.T) {
	k := simkern.New()
	p := New(k, Default(2, loadgen.Constant{N: 0}), rng.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.FastestAt(0, 3, nil)
}

func TestComputeAcrossManyLoadChanges(t *testing.T) {
	// A host flickering every second: effective speed is the harmonic
	// blend of the two states; verify the exact alternating walk.
	var segs []loadgen.Segment
	for i := 0; i < 100; i++ {
		segs = append(segs, loadgen.Segment{Dur: 1, N: i % 2})
	}
	h := replayHost(100e6, segs, 0)
	// Alternating 100/50 MFlop/s from t=0 (N starts at 0): in 2 s the
	// host does 150e6 flops. 1.5e9 flops → 20 s.
	if got := h.ComputeFinish(0, 1.5e9); math.Abs(got-20) > 1e-9 {
		t.Fatalf("finish = %g, want 20", got)
	}
}

// Transfers started at different times with different sizes — some while
// others are still paying the latency, some from completion callbacks —
// arrive in start order and complete in the order the fluid model says.
func TestLinkMixedArrivalsAndCompletions(t *testing.T) {
	k := simkern.New()
	l := NewLink(k, 0.5, 1e6)
	var order []string
	done := func(name string) func() {
		return func() { order = append(order, name) }
	}
	l.Start(3e6, done("big"))
	l.Start(0, done("empty"))
	k.At(0.2, func() { l.Start(1e6, done("small")) }) // starts while big is in its latency
	l.Start(1e6, func() {
		order = append(order, "first")
		l.Start(1e6, done("chained")) // started from a completion callback
	})
	k.Run()
	want := []string{"empty", "first", "small", "chained", "big"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("completion order %v, want %v", order, want)
	}
	if l.InFlight() != 0 || l.TotalBytes != 6e6 {
		t.Fatalf("in flight %d, carried %g", l.InFlight(), l.TotalBytes)
	}
}

// A transfer costs no allocation of the link's own from Start to its
// completion callback, alone or sharing the link, once the link has
// carried as many at once before.
func TestLinkAllocations(t *testing.T) {
	k := simkern.New()
	l := NewLink(k, 0.0005, 6e6)
	left := 0
	landed := func() { left-- }
	burst := func() {
		left = 32
		for i := 0; i < 32; i++ {
			l.Start(1e6, landed)
		}
		k.Run()
		if left != 0 {
			t.Fatalf("%d transfers never completed", left)
		}
	}
	burst()
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("32 concurrent transfers: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		left = 1
		l.Start(1e6, landed)
		k.Run()
	}); got != 0 {
		t.Errorf("one transfer: %v allocs, want 0", got)
	}
}
