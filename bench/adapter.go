package main

// adapter.go is the only file in bench/ that imports repro/internal/*.
// Everything the harness, the workloads and the layer probes need from
// the program under test is reached through the functions and small
// types below, so an API sweep of the runtime is one reviewable edit
// here. The surface used is deliberately narrow: RunWithStats,
// Config{Active, Policy, Probe, Decider, Tracer, Telemetry, Lens},
// NewLocalDecider, StartManagerSupervisor/Resolve, and
// Session.SaveCheckpoint/LoadCheckpoint for the live side; Fig4/Fig7
// and the constructors of each simulator layer for the other.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/loadgen"
	"repro/internal/mpi"
	"repro/internal/mpi/wire"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/platform"
	"repro/internal/predict"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/strategy"
	"repro/internal/swaprt"
	"repro/internal/swaprt/mgrstore"
	"repro/internal/swaprt/policylens"
)

// ---------------------------------------------------------------- live

// liveSpec describes one live world: N active + M spare ranks over TCP
// on the real clock.
type liveSpec struct {
	active, spares int
	policy         string // "greedy", "safe", "friendly"
	probe          func(worldRank int) float64
	// observed arms the always-on production observability: causal
	// clocks, a tracer whose only sink is the flight recorder
	// (buffering off), the telemetry hub and the policy lens.
	observed bool
	// managerDir, when set, routes decisions through a supervised
	// durable manager (WAL + lease in that directory) and its resolved
	// RemoteDecider instead of the in-process LocalDecider.
	managerDir string
}

// liveWorld is a built world plus whatever was stood up around it.
type liveWorld struct {
	world      *mpi.World
	cfg        swaprt.Config
	sup        *swaprt.ManagerSupervisor
	managerDir string
	tracer     *obs.Tracer
	rec        *flight.Recorder
	flightDir  string // the recorder's dump directory; ours to remove
}

// liveStats is the slice of swaprt.RunStats the benchmark reads.
type liveStats struct {
	swapPoints, swaps, decisions int
	aborts, quarantined          int
	stateBytes                   int64
	decide, stateSend, stateRecv time.Duration
}

// wireCounts is the world-total transport counters at one instant.
type wireCounts struct {
	msgs, bytes uint64
	collectives uint64
	sendBlock   time.Duration
}

func newLiveWorld(spec liveSpec) (*liveWorld, error) {
	pol, err := core.Named(spec.policy)
	if err != nil {
		return nil, err
	}
	n := spec.active + spec.spares
	world, err := mpi.NewWorldWithConfig(mpi.Config{Size: n, TCP: true, Causal: spec.observed})
	if err != nil {
		return nil, fmt.Errorf("world: %w", err)
	}
	lw := &liveWorld{world: world, managerDir: spec.managerDir}
	lw.cfg = swaprt.Config{Active: spec.active, Policy: pol, Probe: spec.probe}

	if spec.observed {
		lw.tracer = obs.New(n)
		root, _ := storeRoot()
		if lw.flightDir, err = os.MkdirTemp(root, "swapbench-flight-*"); err != nil {
			world.Close()
			return nil, err
		}
		lw.rec = flight.New(n, flight.Config{Dir: lw.flightDir, Clock: lw.tracer.Now})
		lw.tracer.AttachSink(lw.rec)
		hub := swaprt.NewTelemetryHub(nil)
		if cz := world.Causal(); cz != nil {
			hub.SetCausalProbe(func() swaprt.CausalTelemetry {
				return swaprt.CausalTelemetry{Enabled: true, MaxClock: cz.MaxClock(), Sends: cz.Sends()}
			})
		}
		rec := lw.rec
		hub.SetFlightProbe(func() swaprt.FlightTelemetry {
			st := rec.Status()
			return swaprt.FlightTelemetry{Enabled: true, Buffered: st.Buffered,
				Observed: st.Observed, Dumps: st.Dumps, LastDump: st.LastDump, Dir: st.Dir}
		})
		lens := policylens.New(policylens.Config{Tracer: lw.tracer, Registry: world.Metrics()})
		hub.SetLensProbe(lens.Report)
		lw.cfg.Tracer, lw.cfg.Telemetry, lw.cfg.Lens = lw.tracer, hub, lens
	}

	if spec.managerDir != "" {
		sup, dec, err := startManager(spec.managerDir, pol)
		if err != nil {
			lw.close()
			return nil, err
		}
		lw.sup, lw.cfg.Decider = sup, dec
	}
	return lw, nil
}

// startManager brings up a supervised durable manager on dir and
// resolves the RemoteDecider that talks to it.
func startManager(dir string, pol core.Policy) (*swaprt.ManagerSupervisor, swaprt.Decider, error) {
	sup, err := swaprt.StartManagerSupervisor(swaprt.SupervisorConfig{Dir: dir, Policy: pol})
	if err != nil {
		return nil, nil, fmt.Errorf("manager: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for sup.Addr() == "" {
		if time.Now().After(deadline) {
			sup.Close()
			return nil, nil, fmt.Errorf("manager: not serving after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	dec, err := sup.Resolve()
	if err != nil {
		sup.Close()
		return nil, nil, fmt.Errorf("manager resolve: %w", err)
	}
	return sup, dec, nil
}

// session is the benchmark's view of one rank's swaprt.Session.
type session struct{ s *swaprt.Session }

func (x session) register(name string, ptr any) { x.s.Register(name, ptr) }
func (x session) active() bool                  { return x.s.Active() }
func (x session) done() bool                    { return x.s.Done() }
func (x session) rank() int                     { return x.s.Rank() }
func (x session) commRank() int                 { return x.s.Comm().Rank() }
func (x session) swapPoint() error              { return x.s.SwapPoint() }
func (x session) save(w io.Writer) error        { return x.s.SaveCheckpoint(w) }
func (x session) load(r io.Reader) error        { return x.s.LoadCheckpoint(r) }

// run executes body on every rank and returns the run's statistics.
func (lw *liveWorld) run(body func(session) error) (liveStats, error) {
	rs, err := swaprt.RunWithStats(lw.world, lw.cfg, func(s *swaprt.Session) error {
		return body(session{s})
	})
	return liveStats{
		swapPoints: rs.SwapPoints, swaps: rs.Swaps, decisions: rs.Decisions,
		aborts: rs.SwapAborts, quarantined: rs.Quarantined,
		stateBytes: rs.StateBytes,
		decide:     rs.DecideTime, stateSend: rs.StateSendTime, stateRecv: rs.StateRecvTime,
	}, err
}

// withSession runs fn as the only rank of an in-process world: the way
// to reach Session.SaveCheckpoint/LoadCheckpoint without a transfer.
func withSession(fn func(session) error) error {
	_, err := swaprt.RunWithStats(mpi.NewWorld(1),
		swaprt.Config{Active: 1, Probe: func(int) float64 { return rateFast }},
		func(s *swaprt.Session) error { return fn(session{s}) })
	return err
}

// wire snapshots the transport counters; safe while run is in progress.
func (lw *liveWorld) wire() wireCounts {
	t := lw.world.Stats().Total()
	return wireCounts{msgs: t.MsgsSent, bytes: t.BytesSent,
		collectives: t.Bcasts + t.Gathers + t.Reduces, sendBlock: t.SendBlock}
}

// obsCounts reports the flight recorder's observed events and the
// tracer's dropped events (both 0 when the world is not observed).
func (lw *liveWorld) obsCounts() (observed, dropped uint64) {
	if lw.rec == nil {
		return 0, 0
	}
	return lw.rec.Status().Observed, lw.tracer.Dropped()
}

// close tears the world and the manager down; it returns the number of
// records the manager's store holds (0 without a manager).
func (lw *liveWorld) close() (records uint64, err error) {
	lw.world.Close()
	if lw.flightDir != "" {
		os.RemoveAll(lw.flightDir)
	}
	if lw.sup != nil {
		if err = lw.sup.Close(); err != nil {
			return 0, fmt.Errorf("manager close: %w", err)
		}
		records, err = storeRecords(lw.managerDir)
	}
	return records, err
}

func storeRecords(dir string) (uint64, error) {
	st, err := mgrstore.Open(dir, clock.Real{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	state, _, err := st.Load()
	if err != nil {
		return 0, err
	}
	return state.Seq, nil
}

// ----------------------------------------------------------- simulator

// figuresOp is one sim-figures operation: Fig. 4 and Fig. 7 at reduced
// size. It returns a hash of every cell of both figures.
func figuresOp(baseSeed int64, serial bool) (h uint64, runs int) {
	o := figureOptions(baseSeed, serial)
	f4, f7 := experiment.Fig4(o), experiment.Fig7(o)
	return hashFigures(f4, f7), figureRuns(o, f4) + figureRuns(o, f7)
}

func figureOptions(baseSeed int64, serial bool) experiment.Options {
	return experiment.Options{Seeds: 3, Iterations: 15, Quick: true, BaseSeed: baseSeed, Serial: serial}
}

func figureRuns(o experiment.Options, f *experiment.FigureResult) int {
	return len(f.Series) * len(f.X) * o.Seeds
}

func hashFigures(figs ...*experiment.FigureResult) uint64 {
	h := newHash()
	for _, f := range figs {
		for _, s := range f.Series {
			for _, c := range f.Cells[s] {
				h.float(c.Mean)
				h.float(c.CI95)
				h.float(c.Min)
				h.float(c.Max)
				h.word(uint64(c.N))
			}
		}
	}
	return h.sum
}

func fig4Only(baseSeed int64, serial bool) { experiment.Fig4(figureOptions(baseSeed, serial)) }
func fig7Only(baseSeed int64, serial bool) { experiment.Fig7(figureOptions(baseSeed, serial)) }

// --------------------------------------------------------- layer probes
//
// Each probeXxx builds the layer's inputs once and returns the call to
// time. A probe that needs teardown also returns a cleanup.

func probePolicyDecide(policy string, nActive, nSpare int) func() {
	pol, err := core.Named(policy)
	if err != nil {
		panic(err)
	}
	in := decideInput(nActive, nSpare)
	return func() { pol.DecideExplained(in) }
}

// decideInput is the request shape of a balanced world: near-equal rates, so
// the policy walks every gate and stays.
func decideInput(nActive, nSpare int) core.DecideInput {
	in := core.DecideInput{IterTime: 150e-6, SwapTime: 0.0105}
	for i := 0; i < nActive; i++ {
		in.Active = append(in.Active, core.Candidate{ID: i, Rate: 1000 + float64(i%3)})
	}
	for i := 0; i < nSpare; i++ {
		in.Spare = append(in.Spare, core.Candidate{ID: nActive + i, Rate: 1000 + float64(i%5)})
	}
	return in
}

// predictedSwapTime is the payback model's α + size/β for the runtime's
// default link (0.5 ms, 100 MB/s).
func predictedSwapTime(stateBytes float64) time.Duration {
	return time.Duration(core.SwapTime(0.5e-3, 100e6, stateBytes) * float64(time.Second))
}

// probeWindowMean times History.Add + WindowMean on a history holding
// n samples inside the window (the unpruned scan LocalDecider pays per
// rank per decision). reset rebuilds the history at length n; call it
// before each short batch so the length stays near n.
func probeWindowMean(n int) (reset, call func()) {
	var h *predict.History
	t := 0.0
	reset = func() {
		h, t = &predict.History{}, 0
		for i := 0; i < n; i++ {
			t += 1e-4
			h.Add(t, 1000)
		}
	}
	call = func() {
		t += 1e-4
		h.Add(t, 1000)
		h.WindowMean(t, 300)
	}
	return reset, call
}

// decideRequest is the request a 2+1 world's leader sends: stay is the
// balanced shape, swap has rank 0 slow.
func decideRequest(epoch uint64, now float64, swap bool) swaprt.DecideRequest {
	req := swaprt.DecideRequest{Epoch: epoch, Now: now,
		ActiveSet: []int{0, 1}, ActiveRates: []float64{1000, 1000},
		SpareSet: []int{2}, SpareRates: []float64{1000},
		IterTime: 300e-6, SwapTime: 0.0005}
	if swap {
		req.ActiveRates[0] = 100
	}
	return req
}

func probeLocalDecide(policy string) func() {
	pol, err := core.Named(policy)
	if err != nil {
		panic(err)
	}
	d := swaprt.NewLocalDecider(pol)
	now := 0.0
	return func() {
		now += 300e-6
		if _, err := d.Decide(decideRequest(0, now, false)); err != nil {
			panic(err)
		}
	}
}

// remoteProbes times the RemoteDecider against a supervised manager on
// dir: a stay decision, a swap decision and its outcome report (the
// last two alternate, as in a run: the outcome commits the epoch the
// decision proposed).
type remoteProbes struct {
	sup   *swaprt.ManagerSupervisor
	dec   swaprt.Decider
	epoch uint64
	now   float64
}

func newRemoteProbes(dir string) (*remoteProbes, error) {
	sup, dec, err := startManager(dir, core.Greedy())
	if err != nil {
		return nil, err
	}
	return &remoteProbes{sup: sup, dec: dec}, nil
}

func (p *remoteProbes) stay() {
	p.now += 300e-6
	resp, err := p.dec.Decide(decideRequest(p.epoch, p.now, false))
	if err != nil || len(resp.Swaps) != 0 {
		panic(fmt.Sprintf("remote stay: %v %v", resp.Swaps, err))
	}
}

func (p *remoteProbes) swap() {
	p.now += 300e-6
	resp, err := p.dec.Decide(decideRequest(p.epoch, p.now, true))
	if err != nil || len(resp.Swaps) != 1 {
		panic(fmt.Sprintf("remote swap: %v %v", resp.Swaps, err))
	}
}

func (p *remoteProbes) outcome() {
	p.epoch++
	err := p.dec.(swaprt.OutcomeReporter).ReportOutcome(
		swaprt.OutcomeMsg{Epoch: p.epoch, Committed: true, NewSet: []int{2, 1}})
	if err != nil {
		panic(err)
	}
}

func (p *remoteProbes) close() { p.sup.Close() }

func probeTelemetryObserve() func() {
	hub := swaprt.NewTelemetryHub(nil)
	pol := core.Safe()
	_, eval := pol.DecideExplained(decideInput(2, 1))
	t := 0.0
	return func() {
		t += 150e-6
		hub.ObserveIteration(0, t, 150e-6)
		hub.ObserveDecision(t, &eval, 0, 20e-6)
	}
}

func probeLens() (decision, iteration func()) {
	lens := policylens.New(policylens.Config{})
	in := decideInput(2, 1)
	pol := core.Safe()
	_, eval := pol.DecideExplained(in)
	t := 0.0
	decision = func() {
		t += 150e-6
		lens.ObserveDecision(policylens.Decision{T: t, Input: in, Eval: &eval})
	}
	iteration = func() {
		t += 150e-6
		lens.ObserveIteration(t, 150e-6)
	}
	return decision, iteration
}

// probeStoreAppend times one WAL append (write + fsync on a FileStore).
// dir == "" selects the in-memory store.
func probeStoreAppend(dir string) (call func(), cleanup func(), err error) {
	var st mgrstore.Store
	if dir == "" {
		st = mgrstore.NewMemStore(clock.Real{})
	} else {
		fs, err := mgrstore.Open(dir, clock.Real{})
		if err != nil {
			return nil, nil, err
		}
		st = fs
	}
	epoch := uint64(0)
	call = func() {
		epoch++
		if err := st.Append(&mgrstore.Record{Op: mgrstore.OpEpochCommit, Epoch: epoch}); err != nil {
			panic(err)
		}
	}
	return call, func() { st.Close() }, nil
}

// mpiProbes is a 2-rank TCP world kept open across several probes. The
// peer rank serves a tiny command loop so rank 0 can time one operation
// at a time from the harness goroutine.
type mpiProbes struct {
	world *mpi.World
	cmd   chan mpiCmd
	done  chan error
}

type mpiCmd struct {
	op   string
	n    int
	data []byte
	took chan time.Duration
}

const tagProbe = 7

// newMPIProbes starts the world; causal arms the Lamport clocks.
func newMPIProbes(causal bool) (*mpiProbes, error) {
	world, err := mpi.NewWorldWithConfig(mpi.Config{Size: 2, TCP: true, Causal: causal})
	if err != nil {
		return nil, err
	}
	p := &mpiProbes{world: world, cmd: make(chan mpiCmd), done: make(chan error, 1)}
	go func() { p.done <- world.Run(p.rank) }()
	return p, nil
}

// rank is both ranks' body: rank 0 takes commands from the harness and
// tells rank 1 what to mirror with a one-byte header message.
func (p *mpiProbes) rank(r *mpi.Rank) error {
	c := r.World()
	members := []int{0, 1}
	ack := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if r.Rank() == 1 {
		for {
			hdr, _, err := c.Recv(0, tagProbe)
			if err != nil {
				return err
			}
			op, n := hdr[0], int(hdr[1])<<16|int(hdr[2])<<8|int(hdr[3])
			if op == 'q' {
				return nil
			}
			for i := 0; i < n; i++ {
				switch op {
				case 'p':
					data, _, err := c.Recv(0, tagProbe)
					if err != nil {
						return err
					}
					if err := c.Send(0, tagProbe, data[:min(len(data), 64)]); err != nil {
						return err
					}
				case 'x':
					if _, _, err := c.Recv(0, tagProbe); err != nil {
						return err
					}
					if err := c.Send(0, tagProbe, ack); err != nil {
						return err
					}
				case 'a':
					if _, err := c.AllGatherFloat64(1000); err != nil {
						return err
					}
				case 'b':
					if _, err := c.Bcast(i%2, ack[:4]); err != nil {
						return err
					}
				case 'g':
					if _, err := c.Gather(i%2, ack[:1]); err != nil {
						return err
					}
				}
			}
		}
	}
	for cm := range p.cmd {
		hdr := []byte{cm.op[0], byte(cm.n >> 16), byte(cm.n >> 8), byte(cm.n)}
		if err := c.Send(1, tagProbe, hdr); err != nil {
			return err
		}
		if cm.op == "q" {
			return nil
		}
		start := time.Now()
		for i := 0; i < cm.n; i++ {
			var err error
			switch cm.op {
			case "p", "x":
				if err = c.Send(1, tagProbe, cm.data); err == nil {
					_, _, err = c.Recv(1, tagProbe)
				}
			case "a":
				_, err = c.AllGatherFloat64(1000)
			case "b":
				_, err = c.Bcast(i%2, ack[:4])
			case "g":
				_, err = c.Gather(i%2, ack[:1])
			case "c":
				r.CommOf(members, uint64(i+1))
			}
			if err != nil {
				return err
			}
		}
		cm.took <- time.Since(start)
	}
	return nil
}

// timed runs n repetitions of op on the world and returns the total
// wall time at rank 0. Ops: "p" 64-byte ping-pong (data must be 64
// bytes), "x" transfer of data + 8-byte ack, "a" allgather, "b" bcast,
// "g" gather, "c" CommOf (local, no peer traffic). Bcast and gather
// alternate their root between the two ranks, so consecutive calls
// form a dependency chain and the time per call is the one-way latency
// a waiting member pays, not the root's asynchronous send.
func (p *mpiProbes) timed(op string, n int, data []byte) (time.Duration, error) {
	cm := mpiCmd{op: op, n: n, data: data, took: make(chan time.Duration, 1)}
	select {
	case p.cmd <- cm:
	case err := <-p.done:
		return 0, fmt.Errorf("mpi probe world ended: %v", err)
	}
	select {
	case d := <-cm.took:
		return d, nil
	case err := <-p.done:
		return 0, fmt.Errorf("mpi probe %q: %v", op, err)
	}
}

func (p *mpiProbes) close() error {
	select {
	case p.cmd <- mpiCmd{op: "q"}:
		close(p.cmd)
		return <-p.done
	case err := <-p.done:
		return err
	}
}

// probeWire returns encode and decode calls for one binary-codec
// envelope carrying n payload bytes.
func probeWire(n int) (encode, decode func()) {
	env := &wire.Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: make([]byte, n)}
	for i := range env.Data {
		env.Data[i] = byte(i * 131)
	}
	enc := wire.NewEncoder(wire.CodecBinary)
	encode = func() {
		if err := enc.Encode(env); err != nil {
			panic(err)
		}
		enc.Recycle(enc.Take())
	}
	if err := enc.Encode(env); err != nil {
		panic(err)
	}
	// The stream preamble is written once per connection; a decoder
	// over a fresh reader each call would pay for it every time, so the
	// frame is replayed behind one persistent decoder.
	frame := append([]byte(nil), enc.Take()...)
	rd := &replayReader{data: frame}
	dec := wire.NewDecoder(rd)
	var out wire.Envelope
	first := true
	decode = func() {
		if !first {
			rd.rewind(framePreambleLen)
		}
		first = false
		if err := dec.Decode(&out); err != nil {
			panic(err)
		}
		if len(out.Data) != n {
			panic("wire probe: short payload")
		}
	}
	return encode, decode
}

// framePreambleLen is the one-byte codec preamble a fresh encoder puts
// before its first frame.
const framePreambleLen = 1

// replayReader serves data, then on rewind serves data[skip:] again.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayReader) rewind(skip int) { r.off = skip }

// probeObs returns Tracer.Emit on a disabled tracer, Tracer.Emit with
// only a flight sink attached, and Recorder.Observe alone.
func probeObs(dir string) (emitOff, emitFlight, observe func()) {
	ev := obs.Event{Kind: obs.KindIterEnd, Rank: 0, Value: 150e-6, Epoch: 1}
	off := obs.New(3)
	emitOff = func() { off.EmitNow(ev) }
	on := obs.New(3)
	rec := flight.New(3, flight.Config{Dir: dir, Clock: on.Now})
	on.AttachSink(rec)
	emitFlight = func() { on.EmitNow(ev) }
	rec2 := flight.New(3, flight.Config{Dir: dir})
	observe = func() { rec2.Observe(ev) }
	return
}

// probeKernelEvent times one After+Step pair on a kernel holding depth
// pending events.
func probeKernelEvent(depth int) func() {
	k := simkern.New()
	nop := func() {}
	for i := 0; i < depth; i++ {
		k.After(float64(i+1), nop)
	}
	return func() {
		k.After(float64(depth), nop)
		k.Step()
	}
}

// probeProcSwitch runs a kernel with one process sleeping n times and
// returns the total wall time: each Sleep is an event plus two
// goroutine hand-offs.
func probeProcSwitch(n int) time.Duration {
	k := simkern.New()
	k.Go("sleeper", func(p *simkern.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(1)
		}
	})
	start := time.Now()
	k.Run()
	return time.Since(start)
}

func probeComputeFinish(seed int64) func() {
	src := rng.NewSource(seed)
	h := platform.NewHost(0, app.RefSpeed, loadgen.NewTrace(loadgen.NewOnOff(0.2).NewSource(src, 0)))
	t := 0.0
	return func() {
		t = h.ComputeFinish(t, 120*app.RefSpeed)
		if t > 5e6 {
			t = 0
		}
	}
}

// probeLinkShare times 32 concurrent 1 MB transfers sharing the paper's
// 6 MB/s link, from first Start to the last completion.
func probeLinkShare() func() {
	return func() {
		k := simkern.New()
		cfg := platform.Default(32, loadgen.Constant{})
		l := platform.NewLink(k, cfg.Latency, cfg.Bandwidth)
		left := 32
		for i := 0; i < 32; i++ {
			l.Start(1e6, func() { left-- })
		}
		k.Run()
		if left != 0 {
			panic("link probe: transfers left")
		}
	}
}

// probeLoadDay generates one simulated day of a load trace.
func probeLoadDay(hyperexp bool, seed int64) func() {
	return func() {
		seed++
		src := rng.NewSource(seed)
		var m loadgen.Model = loadgen.NewOnOff(0.2)
		if hyperexp {
			m = loadgen.NewHyperExp(300)
		}
		loadgen.NewTrace(m.NewSource(src, 0)).ValueAt(86400)
	}
}

// probeStrategy runs one technique once on the Fig. 4 scenario (4
// active of 32 hosts, ON/OFF p = 0.2, 1 MB state, 15 iterations).
func probeStrategy(name string, seed int64) func() {
	tech, err := strategy.ByName(name)
	if err != nil {
		panic(err)
	}
	a := app.Iterative{Iterations: 15, WorkPerProcIter: 120 * app.RefSpeed, BytesPerIter: 1e6, StateBytes: 1e6}
	sc := strategy.Scenario{Active: 4, App: a, Policy: core.Greedy()}
	return func() {
		k := simkern.New()
		p := platform.New(k, platform.Default(32, loadgen.NewOnOff(0.2)), rng.NewSource(seed))
		if res := tech.Run(p, sc); res.TotalTime <= 0 {
			panic("strategy probe: empty result")
		}
	}
}

// checkpointBytes encodes a session's registered state once, for sizing.
func checkpointBytes(s session) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
