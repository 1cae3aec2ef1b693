package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"
)

// The probe phase of a traced run: isolated calls into each layer's
// public functions, on the workloads' own inputs, each recorded as a
// child span of "probe". Values are raw (not speed-normalised): the
// ledger subtracts them from the raw traced op time of the same run.

// timeNS returns the median wall ns per call over reps batches of batch
// calls; setup, if set, runs untimed before each batch.
func timeNS(batch, reps int, setup, call func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		if setup != nil {
			setup()
		}
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			call()
		}
		per[r] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}

// allocsPer returns heap objects and bytes allocated per call.
func allocsPer(n int, call func()) (objects, bytes float64) {
	call()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		call()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// prober carries the probe phase's state.
type prober struct {
	rec    *recorder
	parent int
	seed   int64
	quick  bool // smoke runs: a tenth of the repetitions
	out    map[string]float64
}

// reps scales a repetition count down for smoke runs.
func (p *prober) reps(n int) int {
	if p.quick {
		return max(2, n/10)
	}
	return n
}

// span runs fn as a child span of the probe phase.
func (p *prober) span(name string, fn func() error) error {
	id := p.rec.begin(name, p.parent)
	defer p.rec.end(id)
	if err := fn(); err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	return nil
}

// ns records metric name as the median ns per call, in the given unit.
func (p *prober) ns(name string, unitNS float64, batch, reps int, setup, call func()) {
	p.span(name, func() error {
		p.out[name] = timeNS(batch, p.reps(reps), setup, call) / unitNS
		return nil
	})
}

const (
	inNS = 1
	inUS = 1e3
	inMS = 1e6
)

// runProbes makes every isolated layer call and returns the metrics.
func runProbes(rec *recorder, seed int64, quick bool) (map[string]float64, error) {
	p := &prober{rec: rec, seed: seed, quick: quick, out: map[string]float64{}}
	p.parent = rec.begin("probe", 0)
	defer rec.end(p.parent)
	for _, step := range []func() error{
		p.core, p.codec, p.deciders, p.store, p.mpi, p.wireObs, p.sim,
	} {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *prober) core() error {
	decide := probePolicyDecide("safe", 2, 1)
	p.ns("core.decide_ns", inNS, 2000, 15, nil, decide)
	p.out["core.decide_allocs"], _ = allocsPer(1000, decide)
	p.ns("core.decide_wide_ns", inNS, 200, 15, nil, probePolicyDecide("safe", 8, 24))
	reset, call := probeWindowMean(256)
	p.ns("predict.window_mean_256_ns", inNS, 32, 31, reset, call)
	reset, call = probeWindowMean(20000)
	p.ns("predict.window_mean_20k_ns", inNS, 32, 15, reset, call)
	return nil
}

// codec times Session.SaveCheckpoint / LoadCheckpoint on the swap
// workloads' own state.
func (p *prober) codec() error {
	for _, size := range []struct {
		tag   string
		bytes int
		reps  int
	}{{"small", gridSmall, 400}, {"large", gridLarge, 15}} {
		size := size
		err := withSession(func(s session) error {
			st := &appState{Grid: make([]float64, size.bytes/8)}
			fillGrid(st.Grid, p.seed, 0, false)
			st.Meta = stateMeta{Seed: p.seed, Label: "swapbench"}
			st.register(s)
			blob, err := checkpointBytes(s)
			if err != nil {
				return err
			}
			var buf bytes.Buffer
			encode := func() {
				buf.Reset()
				if err := s.save(&buf); err != nil {
					panic(err)
				}
			}
			decode := func() {
				if err := s.load(bytes.NewReader(blob)); err != nil {
					panic(err)
				}
			}
			want := hashGrid(st.Grid)
			p.ns("swaprt.encode_"+size.tag+"_us", inUS, 1, size.reps, nil, encode)
			p.ns("swaprt.decode_"+size.tag+"_us", inUS, 1, size.reps, nil, decode)
			if hashGrid(st.Grid) != want {
				return fmt.Errorf("checkpoint round trip changed the grid")
			}
			p.out["swaprt.encoded_bytes_"+size.tag] = float64(len(blob))
			if size.tag == "large" {
				_, encB := allocsPer(p.reps(10), encode)
				_, decB := allocsPer(p.reps(10), decode)
				p.out["swaprt.encode_large_alloc_kb"] = encB / 1e3
				p.out["swaprt.decode_large_alloc_kb"] = decB / 1e3
				perByte := (p.out["swaprt.encode_large_us"] + p.out["swaprt.decode_large_us"]) / 2
				p.out["swaprt.codec_mb_per_s"] = float64(len(blob)) / perByte // bytes/us = MB/s
				p.out["core.swap_time_predicted_us"] = float64(predictedSwapTime(float64(len(blob)))) / 1e3
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("probe codec %s: %w", size.tag, err)
		}
	}
	return nil
}

func (p *prober) deciders() error {
	p.ns("swaprt.decide_local_us", inUS, 200, 15, nil, probeLocalDecide("greedy"))
	p.ns("swaprt.telemetry_observe_ns", inNS, 1000, 15, nil, probeTelemetryObserve())
	dec, iter := probeLens()
	p.ns("policylens.observe_decision_ns", inNS, 500, 15, nil, dec)
	p.ns("policylens.observe_iteration_ns", inNS, 2000, 15, nil, iter)

	root, _ := storeRoot()
	dir, err := os.MkdirTemp(root, "swapbench-probe-mgr-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rp, err := newRemoteProbes(dir)
	if err != nil {
		return err
	}
	defer rp.close()
	p.ns("swaprt.decide_remote_stay_us", inUS, 1, 300, nil, rp.stay)
	// A swap decision and its outcome report alternate, as in a run.
	n := p.reps(300)
	swapNS, outNS := make([]float64, n), make([]float64, n)
	p.span("swaprt.decide_remote_swap_us", func() error {
		for i := 0; i < n; i++ {
			t0 := time.Now()
			rp.swap()
			t1 := time.Now()
			rp.outcome()
			swapNS[i], outNS[i] = float64(t1.Sub(t0)), float64(time.Since(t1))
		}
		return nil
	})
	p.out["swaprt.decide_remote_swap_us"] = median(swapNS) / 1e3
	p.out["swaprt.outcome_remote_us"] = median(outNS) / 1e3
	return nil
}

func (p *prober) store() error {
	tmpfs, _ := storeRoot()
	for _, target := range []struct{ name, root string }{
		{"mgrstore.append_tmpfs_us", tmpfs},
		{"mgrstore.append_disk_us", diskRoot()},
		{"mgrstore.append_mem_us", ""},
	} {
		dir := ""
		if target.root != "" {
			var err error
			if dir, err = os.MkdirTemp(target.root, "swapbench-probe-wal-*"); err != nil {
				return err
			}
			defer os.RemoveAll(dir)
		}
		call, cleanup, err := probeStoreAppend(dir)
		if err != nil {
			return err
		}
		p.ns(target.name, inUS, 1, 400, nil, call)
		cleanup()
	}
	return nil
}

func (p *prober) mpi() error {
	ping := make([]byte, 64)
	var blob []byte
	err := withSession(func(s session) error {
		st := &appState{Grid: make([]float64, gridLarge/8)}
		fillGrid(st.Grid, p.seed, 0, false)
		st.register(s)
		var err error
		blob, err = checkpointBytes(s)
		return err
	})
	if err != nil {
		return err
	}

	plain, err := newMPIProbes(false)
	if err != nil {
		return err
	}
	defer plain.close()
	for _, o := range []struct {
		name, op    string
		batch, reps int
		data        []byte
	}{
		{"mpi.pingpong_small_us", "p", 200, 15, ping},
		{"mpi.xfer_large_us", "x", 3, 9, blob},
		{"mpi.allgather_us", "a", 200, 15, nil},
		{"mpi.bcast_us", "b", 200, 15, nil},
		{"mpi.gather_us", "g", 200, 15, nil},
		{"mpi.commof_us", "c", 200, 15, nil},
	} {
		o := o
		err := p.span(o.name, func() error {
			per := make([]float64, p.reps(o.reps))
			for r := range per {
				d, err := plain.timed(o.op, o.batch, o.data)
				if err != nil {
					return err
				}
				per[r] = float64(d) / float64(o.batch)
			}
			p.out[o.name] = median(per) / 1e3
			return nil
		})
		if err != nil {
			return err
		}
	}

	// Causal overhead: the same ping-pong on a causal world, batches
	// alternating with the plain world so both see the same host, and
	// the median of the paired differences.
	causal, err := newMPIProbes(true)
	if err != nil {
		return err
	}
	defer causal.close()
	return p.span("mpi.causal_overhead_ns", func() error {
		diff := make([]float64, p.reps(41))
		for r := range diff {
			a, err := plain.timed("p", 100, ping)
			if err != nil {
				return err
			}
			b, err := causal.timed("p", 100, ping)
			if err != nil {
				return err
			}
			diff[r] = float64(b-a) / 100
		}
		p.out["mpi.causal_overhead_ns"] = median(diff)
		return nil
	})
}

func (p *prober) wireObs() error {
	enc, _ := probeWire(gridSmall)
	p.ns("wire.encode_small_ns", inNS, 500, 15, nil, enc)
	enc, dec := probeWire(gridLarge)
	p.ns("wire.encode_large_us", inUS, 5, 15, nil, enc)
	p.ns("wire.decode_large_us", inUS, 5, 15, nil, dec)

	root, _ := storeRoot()
	dir, err := os.MkdirTemp(root, "swapbench-probe-flight-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	off, on, observe := probeObs(dir)
	p.ns("obs.emit_off_ns", inNS, 5000, 15, nil, off)
	p.ns("obs.emit_flight_ns", inNS, 2000, 15, nil, on)
	p.ns("flight.observe_ns", inNS, 2000, 15, nil, observe)
	return nil
}

func (p *prober) sim() error {
	event := probeKernelEvent(1024)
	p.ns("simkern.event_ns", inNS, 2000, 15, nil, event)
	p.out["simkern.event_allocs"], _ = allocsPer(2000, event)
	p.span("simkern.proc_switch_ns", func() error {
		const n = 2000
		per := make([]float64, p.reps(9))
		for r := range per {
			per[r] = float64(probeProcSwitch(n)) / n
		}
		p.out["simkern.proc_switch_ns"] = median(per)
		return nil
	})
	p.ns("platform.compute_finish_ns", inNS, 500, 15, nil, probeComputeFinish(p.seed))
	p.ns("platform.link_share32_us", inUS, 5, 15, nil, probeLinkShare())
	p.ns("loadgen.onoff_day_us", inUS, 1, 31, nil, probeLoadDay(false, p.seed))
	p.ns("loadgen.hyperexp_day_us", inUS, 1, 31, nil, probeLoadDay(true, p.seed))
	for _, tech := range []string{"none", "swap", "dlb", "cr"} {
		run := probeStrategy(tech, p.seed)
		p.ns("strategy."+tech+"_run_us", inUS, 1, 31, nil, run)
		if tech == "swap" {
			p.out["strategy.swap_run_allocs"], _ = allocsPer(p.reps(20), run)
		}
	}
	p.ns("experiment.fig4_ms", inMS, 1, 9, nil, func() { fig4Only(p.seed, false) })
	p.ns("experiment.fig7_ms", inMS, 1, 9, nil, func() { fig7Only(p.seed, false) })
	p.ns("experiment.serial_ms", inMS, 1, 5, nil, func() { figuresOp(p.seed, true) })
	parallel := timeNS(1, p.reps(5), nil, func() { figuresOp(p.seed, false) }) / inMS
	p.out["experiment.parallel_speedup"] = p.out["experiment.serial_ms"] / parallel
	return nil
}

// ledgerRow is one blocking step of a swap op: a layer metric (in µs)
// and how many times the op's critical path pays it.
type ledgerRow struct {
	metric string
	calls  float64
	why    string
}

// swapLedger lists the blocking steps of one forced-swap iteration of a
// 2+1 world, outermost first. The state transfer row differs between
// the small and the large workload; everything else is shared.
func swapLedger(large bool) []ledgerRow {
	enc, dec, xfer := "swaprt.encode_small_us", "swaprt.decode_small_us", "mpi.pingpong_small_us"
	if large {
		enc, dec, xfer = "swaprt.encode_large_us", "swaprt.decode_large_us", "mpi.xfer_large_us"
	}
	return []ledgerRow{
		{"mpi.allgather_us", 1, "probe rates allgathered over the active set"},
		{"swaprt.decide_local_us", 1, "leader's LocalDecider.Decide"},
		{"mpi.bcast_us", 2, "plan broadcast, agreed outcome broadcast"},
		{enc, 1, "outgoing rank encodes the registered state"},
		{xfer, 1, "state to the spare and its 8-byte acknowledgment"},
		{dec, 1, "incoming rank decodes the state"},
		{"mpi.gather_us", 1, "per-swap outcomes gathered at the leader"},
		{"mpi.pingpong_small_us", 0.5, "commit message to the spare (one way)"},
		{"mpi.commof_us", 1, "communicator rebuild of the new active set"},
	}
}

// ledger sums the rows and returns what the traced op time leaves
// unattributed: by construction Σ rows + unattributed = opUS.
func ledger(rows []ledgerRow, layers map[string]float64, opUS float64) (attributed, unattributed float64) {
	for _, r := range rows {
		attributed += layers[r.metric] * r.calls
	}
	return attributed, opUS - attributed
}
