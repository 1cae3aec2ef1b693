package swaprt

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func TestEvictionForcesSwapRegardlessOfPolicy(t *testing.T) {
	// Safe policy + equal rates: no voluntary swap would ever happen.
	// Evicting rank 0 must move the computation anyway.
	var evicted atomic.Bool
	w := mpi.NewWorld(2)
	var finals sync.Map
	err := Run(w, Config{
		Active:  1,
		Policy:  core.Safe(),
		Probe:   func(int) float64 { return 100 },
		Evicted: func(rank int) bool { return rank == 0 && evicted.Load() },
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 10 {
			if s.Active() {
				if iter == 3 && s.Rank() == 0 {
					evicted.Store(true)
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		finals.Store(s.Rank(), [2]int{iter, boolToInt(s.Active())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v0, _ := finals.Load(0)
	v1, _ := finals.Load(1)
	if v0.([2]int)[1] != 0 {
		t.Fatal("evicted rank 0 still active")
	}
	if got := v1.([2]int); got[0] != 10 || got[1] != 1 {
		t.Fatalf("rank 1 state = %v, want active with iter 10", got)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestEvictionWithNoSpareErrors(t *testing.T) {
	w := mpi.NewWorld(1) // no spares at all
	err := Run(w, Config{
		Active:  1,
		Policy:  core.Greedy(),
		Probe:   func(int) float64 { return 100 },
		Evicted: func(rank int) bool { return true },
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 3 {
			if s.Active() {
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "no spare available") {
		t.Fatalf("err = %v, want eviction failure", err)
	}
}

func TestEvictedSpareIsNotASwapTarget(t *testing.T) {
	// Rank 2 is a fast spare but its host is evicted; the forced swap
	// must choose rank 1 instead.
	w := mpi.NewWorld(3)
	rt := &rateTable{rates: []float64{100, 100, 1000}}
	var evict atomic.Bool
	var finals sync.Map
	err := Run(w, Config{
		Active: 1,
		Policy: core.Safe(),
		Probe:  rt.probe,
		Evicted: func(rank int) bool {
			if !evict.Load() {
				return false
			}
			return rank == 0 || rank == 2
		},
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 8 {
			if s.Active() {
				if iter == 2 {
					evict.Store(true)
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		finals.Store(s.Rank(), s.Active())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := finals.Load(1); !v.(bool) {
		t.Fatal("computation did not land on the only non-evicted spare")
	}
	if v, _ := finals.Load(2); v.(bool) {
		t.Fatal("computation landed on an evicted spare")
	}
}

func TestHandlersFeedDeciderHistory(t *testing.T) {
	d := NewLocalDecider(core.Safe())
	w := mpi.NewWorld(2)
	err := Run(w, Config{
		Active:          1,
		Decider:         d,
		Probe:           func(int) float64 { return 100 },
		HandlerInterval: time.Millisecond,
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 5 {
			if s.Active() {
				time.Sleep(5 * time.Millisecond) // give handlers room to tick
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// The spare (rank 1) never hits a swap point before completion, so
	// any history it has must have come from its handler.
	h := d.hist[1]
	if h == nil || h.Len() == 0 {
		t.Fatal("handler reports never reached the decider history")
	}
}

// brokenReportDecider decides locally but fails every handler report,
// modeling a decision service whose report sink is down.
type brokenReportDecider struct{ Forward }

func (d brokenReportDecider) Report(ReportMsg) error {
	return errors.New("report sink down")
}

func TestHandlerReportFailuresCountedNotTraced(t *testing.T) {
	tr := obs.New(0)
	tr.Enable()
	w := mpi.NewWorld(2)
	stats, err := RunWithStats(w, Config{
		Active:          1,
		Decider:         brokenReportDecider{Forward{NewLocalDecider(core.Safe())}},
		Probe:           func(int) float64 { return 100 },
		HandlerInterval: time.Millisecond,
		Tracer:          tr,
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < 5 {
			if s.Active() {
				time.Sleep(5 * time.Millisecond) // give handlers room to tick
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.HandlerReportErrors == 0 {
		t.Fatal("failing reporter left handler_report_errors at 0")
	}
	// Failed probes never enter the decision history, so their trace
	// events must be tagged — a trace showing clean probes the decider
	// never saw would lie about the measurement stream.
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindHandlerProbe && !strings.HasPrefix(ev.Detail, "report-failed") {
			t.Fatalf("untagged HandlerProbe event despite failing reporter: %+v", ev)
		}
	}
}

func TestRemoteReportRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	d := NewLocalDecider(core.Greedy())
	go func() { _ = ServeManager(ln, d, nil) }()

	r := &RemoteDecider{Addr: ln.Addr().String()}
	if err := r.Report(ReportMsg{Rank: 3, Now: 1, Rate: 42}); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.hist[3] == nil || d.hist[3].Len() != 1 {
		t.Fatal("remote report did not land in the server decider's history")
	}
}

func TestRemoteUnknownKindErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeManager(ln, NewLocalDecider(core.Greedy()), nil) }()

	d := &RemoteDecider{Addr: ln.Addr().String()}
	if _, err := d.roundTrip(wireRequest{Kind: "bogus"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// The error came from the manager over a working connection, so the
	// liveness probe still treats the daemon as alive.
	if !isWireError(func() error { _, err := d.roundTrip(wireRequest{Kind: "bogus"}); return err }()) {
		t.Fatal("manager-reported error not marked as wire error")
	}
}

func TestRemotePing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ServeManager(ln, NewLocalDecider(core.Greedy()), nil) }()

	d := &RemoteDecider{Addr: ln.Addr().String(), Timeout: time.Second}
	if err := d.Ping(); err != nil {
		t.Fatalf("ping against live manager: %v", err)
	}
	ln.Close()
	<-served // every connection it served, the kept one included, is closed
	if err := d.Ping(); err == nil {
		t.Fatal("ping against closed manager succeeded")
	}
}

func TestHandlersReportToRemoteManager(t *testing.T) {
	// Full paper architecture: per-rank handlers probing periodically and
	// reporting to a REMOTE manager over TCP, which makes the decisions.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Greedy with a history window: a decider keeps only what its window
	// reaches, and the count below wants to see every report.
	policy := core.Greedy()
	policy.HistoryWindow = 60
	server := NewLocalDecider(policy)
	go func() { _ = ServeManager(ln, server, nil) }()

	w := mpi.NewWorld(2)
	rt := &rateTable{rates: []float64{100, 700}}
	var finals sync.Map
	err = Run(w, Config{
		Active:          1,
		Decider:         &RemoteDecider{Addr: ln.Addr().String()},
		Probe:           rt.probe,
		HandlerInterval: 2 * time.Millisecond,
	}, iterBody(6, nil, func(s *Session, iter int, sum float64) {
		finals.Store(s.Rank(), float64(iter))
	}))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := finals.Load(1); v.(float64) != 6 {
		t.Fatalf("remote-managed handler run did not complete on the fast rank: %v", v)
	}
	// The server decider must have accumulated out-of-band history.
	server.mu.Lock()
	defer server.mu.Unlock()
	total := 0
	for _, h := range server.hist {
		total += h.Len()
	}
	if total < 3 {
		t.Fatalf("remote manager history has only %d samples", total)
	}
}

func TestCheckpointSaveAndRestoreAcrossRuns(t *testing.T) {
	// Run 1 computes 6 of 10 iterations and checkpoints. Run 2 (a fresh
	// world, as after a crash) restores and finishes. The combined sum
	// must equal an uninterrupted run's.
	var blob bytes.Buffer
	body := func(limit int, restore bool, total *float64) func(*Session) error {
		return func(s *Session) error {
			iter := 0
			sum := 0.0
			s.Register("iter", &iter)
			s.Register("sum", &sum)
			if restore && s.Active() {
				if err := s.LoadCheckpoint(bytes.NewReader(blob.Bytes())); err != nil {
					return err
				}
			}
			for !s.Done() && iter < limit {
				if s.Active() {
					sum += float64(iter)
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			if s.Active() {
				if iter == 6 && !restore {
					if err := s.SaveCheckpoint(&blob); err != nil {
						return err
					}
				}
				*total = sum
			}
			return nil
		}
	}

	var partial float64
	err := Run(mpi.NewWorld(1), Config{
		Active: 1, Probe: func(int) float64 { return 1 },
	}, body(6, false, &partial))
	if err != nil {
		t.Fatal(err)
	}

	var final float64
	err = Run(mpi.NewWorld(1), Config{
		Active: 1, Probe: func(int) float64 { return 1 },
	}, body(10, true, &final))
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 10; i++ {
		want += float64(i)
	}
	if final != want {
		t.Fatalf("restored run finished with sum %g, want %g", final, want)
	}
}

func TestCheckpointMismatchedRegistrationFails(t *testing.T) {
	var blob bytes.Buffer
	err := Run(mpi.NewWorld(1), Config{
		Active: 1, Probe: func(int) float64 { return 1 },
	}, func(s *Session) error {
		x := 1
		s.Register("x", &x)
		return s.SaveCheckpoint(&blob)
	})
	if err != nil {
		t.Fatal(err)
	}
	err = Run(mpi.NewWorld(1), Config{
		Active: 1, Probe: func(int) float64 { return 1 },
	}, func(s *Session) error {
		y := 1
		s.Register("y", &y)
		return s.LoadCheckpoint(bytes.NewReader(blob.Bytes()))
	})
	if err == nil {
		t.Fatal("mismatched checkpoint restored")
	}
}
