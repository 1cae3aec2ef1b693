// Package repro's benchmark harness: one testing.B benchmark per paper
// figure (reduced sweep sizes — run cmd/swapexp for the full series), the
// ablation sweeps from DESIGN.md, and micro-benchmarks of the substrates
// the simulation is built on. Each figure benchmark reports a headline
// shape metric alongside wall time, so `go test -bench=.` doubles as a
// compact reproduction report.
package repro

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
)

// benchOptions keeps figure benchmarks fast but non-trivial.
func benchOptions() experiment.Options {
	return experiment.Options{Seeds: 3, Iterations: 15, BaseSeed: 20030623, Quick: true}
}

// ratio reports series a's best advantage over series b across the sweep
// (min over x of a/b), the "who wins by what factor" shape metric.
func ratio(fig *experiment.FigureResult, a, b string) float64 {
	best := 1.0
	for i := range fig.X {
		r := fig.Get(a, i).Mean / fig.Get(b, i).Mean
		if r < best {
			best = r
		}
	}
	return best
}

func BenchmarkFig1Payback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.Fig1(benchOptions())
		if len(fig.X) == 0 {
			b.Fatal("empty figure")
		}
	}
	b.ReportMetric(2.0, "payback_iters")
}

func BenchmarkFig2OnOffTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig2(benchOptions())
	}
}

func BenchmarkFig3HyperExpTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.Fig3(benchOptions())
	}
}

func BenchmarkFig4Techniques(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig4(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap", "none"), "swap/none_best")
	b.ReportMetric(ratio(fig, "dlb", "none"), "dlb/none_best")
	b.ReportMetric(ratio(fig, "cr", "none"), "cr/none_best")
}

// What a figure cell pays before its first event, beside the figure: a
// named stream seeded and read for the dozen values a host's load source
// draws in a quick sweep (the median; EXPERIMENTS.md "Simulator ledger"),
// and the 32-host ON/OFF environment of Fig. 4 — 33 such streams, built
// once per (x, repetition) cell.
func BenchmarkStreamSeedDraw12(b *testing.B) {
	src := rng.NewSource(20030623)
	var sink float64
	for i := 0; i < b.N; i++ {
		st := src.Stream("host-17")
		for d := 0; d < 12; d++ {
			sink += st.Float64()
		}
	}
	_ = sink
}

func BenchmarkNewEnvironment32(b *testing.B) {
	cfg := platform.Default(32, loadgen.NewOnOff(0.2))
	for i := 0; i < b.N; i++ {
		platform.NewEnvironment(cfg, rng.NewSource(int64(i)))
	}
}

// One run of each technique on the Fig. 4 scenario (4 active of 32 hosts,
// ON/OFF p = 0.2, 1 MB state, 15 iterations), without the environment
// build: the environment is built once, and every op binds it to a fresh
// kernel as a sweep cell does for each of its series.
func BenchmarkTechniqueRun(b *testing.B) {
	a := app.Iterative{Iterations: 15, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 1e6}
	sc := strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}
	for _, name := range []string{"none", "swap", "dlb", "cr"} {
		b.Run(name, func(b *testing.B) {
			tech, err := strategy.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			e := platform.NewEnvironment(platform.Default(32, loadgen.NewOnOff(0.2)), rng.NewSource(20030623))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := tech.Run(e.Bind(simkern.New()), sc); res.TotalTime <= 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}

func BenchmarkFig5OverAllocation(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig5(benchOptions())
	}
	last := len(fig.X) - 1
	b.ReportMetric(fig.Get("swap", last).Mean/fig.Get("swap", 0).Mean, "swap_300pct/0pct")
}

func BenchmarkFig6ProcessSize(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig6(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap-1MB", "none"), "swap1MB/none_best")
	// For 1GB the interesting number is how harmful it gets (max ratio).
	worst := 1.0
	for i := range fig.X {
		if r := fig.Get("swap-1GB", i).Mean / fig.Get("none", i).Mean; r > worst {
			worst = r
		}
	}
	b.ReportMetric(worst, "swap1GB/none_worst")
}

func BenchmarkFig7Policies(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig7(benchOptions())
	}
	b.ReportMetric(ratio(fig, "greedy", "none"), "greedy/none_best")
	b.ReportMetric(ratio(fig, "safe", "none"), "safe/none_best")
	b.ReportMetric(ratio(fig, "friendly", "none"), "friendly/none_best")
}

func BenchmarkFig8PoliciesLargeState(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig8(benchOptions())
	}
	last := len(fig.X) - 1
	b.ReportMetric(fig.Get("greedy", last).Mean/fig.Get("none", last).Mean, "greedy/none_chaotic")
	b.ReportMetric(fig.Get("safe", last).Mean/fig.Get("none", last).Mean, "safe/none_chaotic")
}

func BenchmarkFig9HyperExp(b *testing.B) {
	var fig *experiment.FigureResult
	for i := 0; i < b.N; i++ {
		fig = experiment.Fig9(benchOptions())
	}
	b.ReportMetric(ratio(fig, "swap", "none"), "swap/none_best")
}

// Ablation benchmarks (DESIGN.md Section 8).

func BenchmarkAblationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationHistory(benchOptions())
	}
}

func BenchmarkAblationPayback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationPayback(benchOptions())
	}
}

func BenchmarkAblationImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationImprovement(benchOptions())
	}
}

func BenchmarkAblationSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationSelector(benchOptions())
	}
}

func BenchmarkAblationForecaster(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.AblationForecaster(benchOptions())
	}
}

// Substrate micro-benchmarks.

func BenchmarkKernelEventThroughput(b *testing.B) {
	k := simkern.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		k.Step()
	}
}

func BenchmarkKernelProcSwitch(b *testing.B) {
	k := simkern.New()
	k.Go("p", func(p *simkern.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	k.Run()
}

func BenchmarkLinkFairSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := simkern.New()
		l := platform.NewLink(k, 0.0005, 6e6)
		for j := 0; j < 32; j++ {
			l.Start(1e6, func() {})
		}
		k.Run()
	}
}

func BenchmarkHostComputeFinish(b *testing.B) {
	tr := loadgen.NewTrace(loadgen.NewOnOff(0.3).NewSource(rng.NewSource(1), 0))
	h := platform.NewHost(0, 500e6, tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ComputeFinish(float64(i%1000), 6e10)
	}
}

func BenchmarkPolicyDecide(b *testing.B) {
	var active, spare []core.Candidate
	st := rng.NewSource(2).Stream("bench")
	for i := 0; i < 8; i++ {
		active = append(active, core.Candidate{ID: i, Rate: st.Uniform(100, 800)})
	}
	for i := 0; i < 24; i++ {
		spare = append(spare, core.Candidate{ID: 100 + i, Rate: st.Uniform(100, 800)})
	}
	in := core.DecideInput{Active: active, Spare: spare, IterTime: 120, SwapTime: 0.17}
	pol := core.Safe()
	// Decide formats no text; DecideExplained is the same decision with
	// its Reason (what this benchmark measured while Decide was a
	// wrapper around it).
	b.Run("Decide", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pol.Decide(in)
		}
	})
	b.Run("DecideExplained", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pol.DecideExplained(in)
		}
	})
}

func BenchmarkPaybackDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		core.PaybackDistance(10, 120, 1, 2.5)
	}
}

func BenchmarkOnOffTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := loadgen.NewTrace(loadgen.NewOnOff(0.3).NewSource(rng.NewSource(int64(i)), 0))
		tr.ValueAt(86400) // one simulated day
	}
}

func BenchmarkHyperExpTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := loadgen.NewTrace(loadgen.NewHyperExp(300).NewSource(rng.NewSource(int64(i)), 0))
		tr.ValueAt(86400)
	}
}

func BenchmarkMPIPingPong(b *testing.B) {
	w := mpi.NewWorld(2)
	payload := make([]byte, 1024)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		for i := 0; i < b.N; i++ {
			if r.Rank() == 0 {
				if err := c.Send(1, 0, payload); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 0); err != nil {
					return err
				}
			} else {
				if _, _, err := c.Recv(0, 0); err != nil {
					return err
				}
				if err := c.Send(0, 0, payload); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTCPSendDistinctRanks measures head-of-line blocking in the
// TCP transport: rank 0 continuously sends large (64 KiB) messages to
// rank 1 while the timed loop sends tiny messages to rank 2. When the
// transport serializes every send behind one global lock, each tiny send
// waits for a full large-message encode; with per-destination
// connections the two streams are independent.
func BenchmarkTCPSendDistinctRanks(b *testing.B) {
	benchTCPSendDistinctRanks(b, nil, mpi.Config{Size: 3, TCP: true})
}

// BenchmarkTCPSendDistinctRanksTraced is the same send path with an
// enabled obs tracer attached, quantifying the cost of full event
// recording (the disabled-tracer overhead is the delta between the
// untraced benchmark here and the pre-obs baseline in EXPERIMENTS.md
// "Tracer overhead").
func BenchmarkTCPSendDistinctRanksTraced(b *testing.B) {
	tr := obs.New(3, obs.WithLimit(1<<16))
	tr.Enable()
	benchTCPSendDistinctRanks(b, tr, mpi.Config{Size: 3, TCP: true})
}

// BenchmarkTCPSendDistinctRanksCausal is the always-on production shape:
// Lamport piggybacking on the wire (the frame's 16-byte extension) plus
// the flight recorder observing every event through the sink, with the
// tracer's own buffering off. The bench-transport gate holds this
// variant to the same 0 allocs/op as the plain one — the extension is
// encoded into the pooled frame buffer, decoded into the decoder's own
// header array, and flight rings store events by value.
func BenchmarkTCPSendDistinctRanksCausal(b *testing.B) {
	tr := obs.New(3)
	rec := flight.New(3, flight.Config{Dir: b.TempDir()})
	tr.AttachSink(rec)
	benchTCPSendDistinctRanks(b, tr, mpi.Config{Size: 3, TCP: true, Causal: true})
}

func benchTCPSendDistinctRanks(b *testing.B, tr *obs.Tracer, cfg mpi.Config) {
	w, err := mpi.NewWorldWithConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w.SetTracer(tr)
	flood := bytes.Repeat([]byte{1}, 64<<10)
	small := []byte("ping")
	var stop atomic.Bool
	err = w.Run(func(r *mpi.Rank) error {
		c := r.World()
		// Handshake: establish both connections and their read loops
		// before any sustained traffic (the seed transport deadlocks
		// otherwise — see TestTCPFloodFromStart).
		if r.Rank() == 0 {
			for _, dst := range []int{1, 2} {
				if err := c.Send(dst, 2, nil); err != nil {
					return err
				}
				if _, _, err := c.Recv(dst, 2); err != nil {
					return err
				}
			}
		} else {
			if _, _, err := c.Recv(0, 2); err != nil {
				return err
			}
			if err := c.Send(0, 2, nil); err != nil {
				return err
			}
		}
		switch r.Rank() {
		case 0:
			floodDone := make(chan error, 1)
			go func() {
				for !stop.Load() {
					if err := c.Send(1, 0, flood); err != nil {
						floodDone <- err
						return
					}
				}
				floodDone <- c.Send(1, 1, nil) // tell rank 1 to stop
			}()
			time.Sleep(50 * time.Millisecond) // let the flood get going
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Send(2, 0, small); err != nil {
					return err
				}
			}
			b.StopTimer()
			stop.Store(true)
			if err := <-floodDone; err != nil {
				return err
			}
			return c.Send(2, 1, nil) // tell rank 2 to stop
		case 1, 2: // drain until the stop marker arrives
			for {
				_, st, err := c.Recv(0, mpi.AnyTag)
				if err != nil {
					return err
				}
				if st.Tag == 1 {
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// xferSizes are the payloads of the transfer benchmarks: a probe report,
// swap-small's state and swap-large's (the paper's 1 MB process).
var xferSizes = []struct {
	name string
	n    int
}{{"16B", 16}, {"4KiB", 4 << 10}, {"1MiB", 1 << 20}}

// BenchmarkTCPXfer is one state transfer as the transport sees it: a
// payload from rank 0 to rank 1 and an 8-byte ack back, through
// Comm.Send/Recv/Release on a 2-rank TCP world. BenchmarkLoopbackRaw is
// the same exchange on a bare loopback connection, so the pair reads as
// what the mesh adds to what the link costs; cmd/benchagg gates the
// 1 MiB row's bytes/op (no staging buffer, no vector allocation).
func BenchmarkTCPXfer(b *testing.B) {
	for _, sz := range xferSizes {
		b.Run(sz.name, func(b *testing.B) {
			w, err := mpi.NewTCPWorld(2)
			if err != nil {
				b.Fatal(err)
			}
			payload, ack := bytes.Repeat([]byte{7}, sz.n), make([]byte, 8)
			b.SetBytes(int64(sz.n))
			err = w.Run(func(r *mpi.Rank) error {
				c := r.World()
				me, peer := r.Rank(), 1-r.Rank()
				out := [2][]byte{payload, ack}[me]
				// One untimed exchange dials both connections.
				for i := -1; i < b.N; i++ {
					if i == 0 && me == 0 {
						b.ResetTimer()
					}
					if me == 0 {
						if err := c.Send(peer, 0, out); err != nil {
							return err
						}
					}
					d, _, err := c.Recv(peer, 0)
					if err != nil {
						return err
					}
					c.Release(d)
					if me == 1 {
						if err := c.Send(peer, 0, out); err != nil {
							return err
						}
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkLoopbackRaw(b *testing.B) {
	for _, sz := range xferSizes {
		b.Run(sz.name, func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			echoed := make(chan error, 1)
			go func() { // the receiving end: read a payload, write an ack
				conn, err := ln.Accept()
				if err != nil {
					echoed <- err
					return
				}
				defer conn.Close()
				in, ack := make([]byte, sz.n), make([]byte, 8)
				for i := -1; i < b.N; i++ {
					if _, err := io.ReadFull(conn, in); err != nil {
						echoed <- err
						return
					}
					if _, err := conn.Write(ack); err != nil {
						echoed <- err
						return
					}
				}
				echoed <- nil
			}()
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(time.Minute))
			payload, ack := bytes.Repeat([]byte{7}, sz.n), make([]byte, 8)
			b.SetBytes(int64(sz.n))
			for i := -1; i < b.N; i++ {
				if i == 0 {
					b.ResetTimer()
				}
				if _, err := conn.Write(payload); err != nil {
					b.Fatal(err)
				}
				if _, err := io.ReadFull(conn, ack); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-echoed; err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkMPIAllReduce8(b *testing.B) {
	w := mpi.NewWorld(8)
	b.ResetTimer()
	err := w.Run(func(r *mpi.Rank) error {
		c := r.World()
		for i := 0; i < b.N; i++ {
			if _, err := c.AllReduceFloat64(mpi.OpSum, 1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
