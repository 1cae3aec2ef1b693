package swaprt

import (
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/swaprt/mgrstore"
	"repro/internal/swaprt/policylens"
)

// TestLiveTraceOneTimeline runs an accelerated 2+1 world with everything
// that stamps a time switched on — tracer, telemetry hub, lens, swap
// handlers — through one forced swap, and holds the trace to one clock:
// the iteration times the runtime measured fit the span of the rank
// events that bracket them, the lens's events fall inside that span, and
// the traced transfer is the transfer RunStats timed.
func TestLiveTraceOneTimeline(t *testing.T) {
	clk := clock.NewScaled(20)
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 3, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	secs := clock.Seconds(w.Clock())
	tr := obs.New(3, obs.WithClock(secs))
	tr.Enable()
	hub := NewTelemetryHub(secs)
	lens := policylens.New(policylens.Config{Tracer: tr, Clock: secs})
	rt := &rateTable{rates: []float64{100, 1000, 1000}}
	const iters = 30
	rs, err := RunWithStats(w, Config{
		Active:          2,
		Policy:          core.Greedy(),
		Probe:           rt.probe,
		HandlerInterval: 5 * time.Millisecond,
		Tracer:          tr,
		Telemetry:       hub,
		Lens:            lens,
	}, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < iters {
			if s.Active() {
				clk.Sleep(10 * time.Millisecond) // virtual: 0.5 ms of wall time
				if _, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1); err != nil {
					return err
				}
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
	if rs.Swaps != 1 {
		t.Fatalf("Swaps = %d, want the one forced swap 0 -> 2", rs.Swaps)
	}

	events := tr.Events()
	if err := obs.CheckTimeline(events); err != nil {
		t.Fatal(err)
	}
	var beside int // lens and hub events, which CheckTimeline placed inside the rank span
	var out *obs.Event
	for i, ev := range events {
		switch {
		case ev.Rank < 0 && (ev.Kind == obs.KindShadowDecision || ev.Kind == obs.KindPaybackRealized):
			beside++
		case ev.Kind == obs.KindStateTransfer && ev.Detail == "out":
			out = &events[i]
		}
	}
	if beside == 0 {
		t.Fatal("no lens events in the trace: the span check was vacuous")
	}
	if out == nil {
		t.Fatal("no outbound StateTransfer event")
	}
	if sent := rs.StateSendTime.Seconds(); math.Abs(out.Dur-sent) > 0.2*sent {
		t.Fatalf("StateTransfer.Dur = %gs but RunStats.StateSendTime = %gs: the span was timed on two clocks", out.Dur, sent)
	}
	// An iteration sleeps 10 virtual ms: a trace on the wall clock would
	// put the whole run inside one such iteration.
	if span := obs.Analyze(events).Span; span < iters*0.010 {
		t.Fatalf("rank events end at %gs, before %d iterations of 10 ms could", span, iters)
	}
}

// steppedDecider is the decision service of a stepped run: it records
// what each decision was asked and answered, and hands every handler
// report it has folded in back to the driver, so the driver can hold the
// clock still until the tick it caused has been fully consumed.
type steppedDecider struct {
	Forward
	reported chan struct{}

	mu        sync.Mutex
	decisions []steppedDecision
}

type steppedDecision struct {
	Iteration int
	IterTime  float64
	Out, In   int // -1, -1 for a stay
	Payback   float64
}

func (d *steppedDecider) Decide(req DecideRequest) (DecideResponse, error) {
	resp, err := d.Next.Decide(req)
	rec := steppedDecision{IterTime: req.IterTime, Out: -1, In: -1}
	if len(resp.Swaps) > 0 {
		rec.Out, rec.In = resp.Swaps[0].Out, resp.Swaps[0].In
	}
	if resp.Eval != nil {
		rec.Payback = resp.Eval.Payback
	}
	d.mu.Lock()
	rec.Iteration = len(d.decisions) + 1
	d.decisions = append(d.decisions, rec)
	d.mu.Unlock()
	return resp, err
}

func (d *steppedDecider) Report(m ReportMsg) error {
	err := d.Next.Report(m)
	d.reported <- struct{}{}
	return err
}

// steppedAudit is what a stepped run is watched with: a tracer the
// runtime writes to, and a lens on the leaf decider — the runtime's own
// LocalDecider (Config.Lens), or with served, a LocalDecider behind
// ServeManager → DurableDecider that carries the lens as swapmgr -lens
// attaches it. The zero value watches nothing and decides in process.
type steppedAudit struct {
	tracer *obs.Tracer
	lens   *policylens.Lens
	served bool
}

// steppedRun is one fully deterministic live run: a 2+1 world on a
// manual clock.Fake where the only thing that moves time is the active
// leader's Advance(step) per iteration. Each step is one handler
// interval, so every rank's handler ticks exactly once per iteration,
// and the leader waits for all three reports before it goes on: no
// goroutine ever reads a clock that is about to move. rate gives each
// rank's host speed as a function of the leader's iteration count — the
// trace a sim-versus-live comparison would feed both sides.
func steppedRun(t *testing.T, policy core.Policy, iters int, step time.Duration,
	rate func(rank, iter int) float64, audit steppedAudit) []steppedDecision {
	t.Helper()
	const ranks = 3
	w, clk := fakeWorld(t, ranks)
	var mu sync.Mutex
	iterNow := 0
	cfg := Config{Policy: policy, Tracer: audit.tracer}
	var leaf Decider
	if audit.served {
		local := NewLocalDecider(policy)
		local.Lens = audit.lens
		durable, err := NewDurableDecider(local, mgrstore.NewMemStore(clock.Real{}), nil)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() { _ = ServeManager(ln, durable, nil) }()
		leaf = &RemoteDecider{Addr: ln.Addr().String()}
	} else {
		cfg.Lens = audit.lens
		leaf = cfg.localDecider()
	}
	d := &steppedDecider{Forward: Forward{leaf}, reported: make(chan struct{}, ranks)}
	cfg.Active, cfg.Decider, cfg.HandlerInterval = 2, d, step
	cfg.Probe = func(rank int) float64 {
		mu.Lock()
		defer mu.Unlock()
		return rate(rank, iterNow)
	}
	err := Run(w, cfg, func(s *Session) error {
		iter := 0
		s.Register("iter", &iter)
		for !s.Done() && iter < iters {
			if s.Active() {
				if s.Comm().Rank() == 0 {
					mu.Lock()
					iterNow = iter
					mu.Unlock()
					clk.BlockUntilWaiters(ranks) // every handler's ticker is armed
					clk.Advance(step)
					for i := 0; i < ranks; i++ {
						<-d.reported
					}
				}
				if _, err := s.Comm().AllReduceFloat64(mpi.OpSum, 1); err != nil {
					return err
				}
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
	return d.decisions
}

// TestSteppedRunIsDeterministic pins the live-on-fake-clock fixture: the
// decider sees exactly the step as the iteration time — 0.05, not about
// 0.05 — and two runs of one scenario take the identical decisions,
// under a policy whose window means depend on every handler report.
func TestSteppedRunIsDeterministic(t *testing.T) {
	// Rank 0's host degrades at iteration 6; safe's window mean needs a
	// few slow samples before it believes it and moves to the spare.
	rate := func(rank, iter int) float64 {
		if rank == 0 && iter >= 6 {
			return 100
		}
		return 1000
	}
	const iters, step = 40, 50 * time.Millisecond
	first := steppedRun(t, core.Safe(), iters, step, rate, steppedAudit{})
	if len(first) != iters {
		t.Fatalf("%d decisions, want one per iteration (%d)", len(first), iters)
	}
	swaps := 0
	for _, d := range first {
		if d.IterTime != 0.05 {
			t.Fatalf("decision %d saw IterTime %v, want exactly 0.05", d.Iteration, d.IterTime)
		}
		if d.Out >= 0 {
			swaps++
			if d.Out != 0 || d.In != 2 || !(d.Payback > 0) {
				t.Fatalf("decision %d swapped %d -> %d with payback %g, want 0 -> 2 with a positive payback",
					d.Iteration, d.Out, d.In, d.Payback)
			}
		}
	}
	if swaps != 1 {
		t.Fatalf("%d swap decisions, want exactly one (the degraded rank 0 moves to the spare)", swaps)
	}
	if second := steppedRun(t, core.Safe(), iters, step, rate, steppedAudit{}); !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs of one scenario decided differently:\n%+v\n%+v", first, second)
	}
}
