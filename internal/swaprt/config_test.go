package swaprt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

func TestConfigFillDefaults(t *testing.T) {
	c := Config{}.fill()
	if c.Probe == nil {
		t.Fatal("fill left nil hooks")
	}
	if c.LinkLatency == nil || *c.LinkLatency <= 0 || c.LinkBandwidth == nil || *c.LinkBandwidth <= 0 {
		t.Fatalf("link defaults: %v, %v", c.LinkLatency, c.LinkBandwidth)
	}
	if c.Policy.Name != "greedy" {
		t.Fatalf("default policy %q", c.Policy.Name)
	}
	// Explicit values survive.
	lat, bw := 1.0, 2.0
	c2 := Config{LinkLatency: &lat, LinkBandwidth: &bw, Policy: core.Safe()}.fill()
	if *c2.LinkLatency != 1 || *c2.LinkBandwidth != 2 || c2.Policy.Name != "safe" {
		t.Fatal("fill clobbered explicit values")
	}
	// Explicit zero is a genuine value (idealized zero-latency link), not
	// "unset": fill must not replace it with the default.
	zero := 0.0
	c3 := Config{LinkLatency: &zero, LinkBandwidth: &bw}.fill()
	if *c3.LinkLatency != 0 {
		t.Fatalf("explicit zero LinkLatency replaced with %g", *c3.LinkLatency)
	}
	// The default probe must return something positive.
	if c.Probe(0) <= 0 {
		t.Fatal("default probe non-positive")
	}
}

func TestRunValidation(t *testing.T) {
	w := mpi.NewWorld(2)
	for _, active := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Active=%d accepted", active)
				}
			}()
			_ = Run(w, Config{Active: active, Probe: func(int) float64 { return 1 }},
				func(s *Session) error { return nil })
		}()
	}
}

func TestSessionAccessors(t *testing.T) {
	w := mpi.NewWorld(3)
	err := Run(w, Config{Active: 2, Probe: func(int) float64 { return 1 }},
		func(s *Session) error {
			if s.WorldSize() != 3 {
				t.Errorf("WorldSize = %d", s.WorldSize())
			}
			if s.Rank() < 0 || s.Rank() > 2 {
				t.Errorf("Rank = %d", s.Rank())
			}
			if s.Active() {
				// Active set is {0,1}; comm ranks map to world ranks.
				c := s.Comm()
				if c.WorldRank(c.Rank()) != s.Rank() {
					t.Error("comm/world rank mapping broken")
				}
				if got := s.stateSizeEstimate(); got <= 0 {
					t.Errorf("stateSizeEstimate = %g", got)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	w := mpi.NewWorld(1)
	_ = Run(w, Config{Active: 1, Probe: func(int) float64 { return 1 }},
		func(s *Session) error {
			defer func() {
				if recover() == nil {
					t.Error("Register(nil) did not panic")
				}
			}()
			s.Register("x", nil)
			return nil
		})
}
