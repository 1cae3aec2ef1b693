package swaprt

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

func TestAssignFullChannelFailsLoudly(t *testing.T) {
	m := newManager(Config{}.fill(), NewLocalDecider(core.Greedy()), nil)
	a := assignment{epoch: 1, stateFrom: 0}
	for i := 0; i < maxAssigned; i++ {
		if err := m.assign(1, a); err != nil {
			t.Fatalf("assign %d: %v", i, err)
		}
	}
	// The queue is full; one more must error immediately instead of
	// hiding a spare assigned twice in one parked period.
	if err := m.assign(1, a); err == nil {
		t.Fatal("assign into a full queue succeeded")
	}
}

// filled returns n floats none of which is zero: a zero prefix or suffix
// is not part of the encoded size.
func filled(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

// TestStateSizeEstimateTracksResize: the estimate is computed from the
// variables at every call, so a registered slice that grows or shrinks
// between swap points changes it by exactly its bytes, with no
// re-registration and without encoding anything.
func TestStateSizeEstimateTracksResize(t *testing.T) {
	s := &Session{state: newStateSet()}
	x := filled(100)
	s.Register("x", &x)

	first := s.stateSizeEstimate()
	if first <= 800 {
		t.Fatalf("estimate = %g for 800 bytes of floats", first)
	}
	x = append(x, filled(1000)...)
	if got := s.stateSizeEstimate(); got != first+8000 {
		t.Fatalf("estimate after growing by 1000 floats = %g, want %g", got, first+8000)
	}
	x = x[:10]
	if got := s.stateSizeEstimate(); got != first-720 {
		t.Fatalf("estimate after shrinking to 10 floats = %g, want %g", got, first-720)
	}
	if blob := s.state.encodeBlob(nil); float64(len(blob)) != first-720 {
		t.Fatalf("encode = %d bytes, estimate said %g", len(blob), first-720)
	}
}

// TestSwapTimeTracksResizedState is the same defect end to end: the
// estimate used to be cached until the next Register, so the policy kept
// being fed the swapTime of the state's first size.
func TestSwapTimeTracksResizedState(t *testing.T) {
	tr := obs.New(2)
	tr.Enable()
	lat, bw := 0.0, 1e6 // swapTime = bytes / 1e6
	err := Run(mpi.NewWorld(2), Config{Active: 2, Policy: core.Safe(), Tracer: tr,
		Probe: func(int) float64 { return 100 }, LinkLatency: &lat, LinkBandwidth: &bw},
		func(s *Session) error {
			iter := 0
			grid := filled(1000)
			s.Register("iter", &iter)
			s.Register("grid", &grid)
			for iter < 3 {
				iter++
				if iter == 2 {
					grid = append(grid, filled(9000)...)
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
	var swapTimes []float64
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindSwapDecision {
			swapTimes = append(swapTimes, ev.SwapTime)
		}
	}
	if len(swapTimes) != 3 {
		t.Fatalf("saw %d swap decisions, want 3", len(swapTimes))
	}
	// 9000 more float64s are 72,000 more bytes, 0.072 s at 1 MB/s.
	if d := swapTimes[1] - swapTimes[0]; d < 0.0719 || d > 0.0721 {
		t.Fatalf("swapTime went %g -> %g after the grid grew by 72,000 bytes, want +0.072", swapTimes[0], swapTimes[1])
	}
	if swapTimes[2] != swapTimes[1] {
		t.Fatalf("swapTime moved %g -> %g with no resize", swapTimes[1], swapTimes[2])
	}
}

func TestRunWithStatsCounters(t *testing.T) {
	w := mpi.NewWorld(3)
	rt := &rateTable{rates: []float64{100, 100, 1000}} // rank 2: fast spare
	stats, err := RunWithStats(w, Config{
		Active: 2,
		Policy: core.Greedy(),
		Probe:  rt.probe,
	}, iterBody(20, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SwapPoints == 0 || stats.Decisions == 0 {
		t.Fatalf("no swap points/decisions recorded: %+v", stats)
	}
	if stats.Swaps < 1 {
		t.Fatalf("expected at least one swap, got %d", stats.Swaps)
	}
	if stats.StateBytes <= 0 || stats.StateSendTime <= 0 || stats.StateRecvTime <= 0 {
		t.Fatalf("state transfer not instrumented: %+v", stats)
	}
	if stats.DecideTime <= 0 {
		t.Fatalf("decision latency not instrumented: %+v", stats)
	}
	total := stats.MPI.Total()
	if total.MsgsSent == 0 || total.BytesSent == 0 {
		t.Fatalf("MPI counters empty: %+v", total)
	}
	if total.MsgsSent != total.MsgsRecv || total.BytesSent != total.BytesRecv {
		t.Fatalf("MPI sent/recv mismatch after clean run: %+v", total)
	}
	if stats.String() == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestSwapWhileOtherRanksMidSend runs swaps over the TCP transport while
// background goroutines keep large world-communicator sends in flight.
// Run with -race: it exercises state transfers interleaving with
// unrelated traffic on the same per-destination connections.
func TestSwapWhileOtherRanksMidSend(t *testing.T) {
	const (
		ranks    = 4
		nactive  = 3
		iters    = 12
		tagFlood = 777
	)
	w, err := mpi.NewTCPWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	rt := &rateTable{rates: []float64{1000, 1000, 100, 5000}} // rank 2 slow, rank 3 fast spare
	payload := bytes.Repeat([]byte{9}, 1<<15)
	var floodsSent atomic.Int64
	stats, err := RunWithStats(w, Config{
		Active: nactive,
		Policy: core.Greedy(),
		Probe:  rt.probe,
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		wc := s.r.World()
		var wg sync.WaitGroup
		for !s.Done() && iter < iters {
			if s.Active() {
				// Keep a burst of large sends in flight across the coming
				// swap point.
				dst := (s.Rank() + 1) % ranks
				wg.Add(1)
				go func() {
					defer wg.Done()
					for k := 0; k < 3; k++ {
						if err := wc.Send(dst, tagFlood, payload); err != nil {
							return
						}
						floodsSent.Add(1)
					}
				}()
				if _, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1); err != nil {
					wg.Wait()
					return err
				}
				iter++
			}
			if err := s.SwapPoint(); err != nil {
				wg.Wait()
				return err
			}
		}
		wg.Wait()
		// Drain whatever flood traffic reached me so mailboxes don't mask
		// errors; in-flight stragglers are fine.
		for {
			ok, _ := wc.Iprobe(mpi.AnySource, tagFlood)
			if !ok {
				break
			}
			if _, _, err := wc.Recv(mpi.AnySource, tagFlood); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Swaps < 1 {
		t.Fatalf("no swap happened (rates %v)", rt.rates)
	}
	if floodsSent.Load() == 0 {
		t.Fatal("no background sends completed")
	}
	if stats.StateBytes <= 0 {
		t.Fatalf("state transfer not recorded: %+v", stats)
	}
}
