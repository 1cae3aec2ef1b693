package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A round is a fresh world: set-up, a fixed-count warm-up, then a
// fixed-count timed phase, with control slices interleaved by the
// leader at every block edge. Counts, never durations, bound every phase, because the
// program's per-op cost depends on the op index (LocalDecider's history
// is unpruned) and rounds must be comparable across runs.

// roundCtx is what the harness hands a workload for one round.
type roundCtx struct {
	seed     int64
	round    int
	ops      int // timed ops
	warm     int // warm-up ops before them
	every    int // ops per block: a control slice runs at every block edge
	ctl      ctlSpec
	rec      *recorder // nil when untraced
	zeroFill bool      // test-only: fill the grid with zeros (trips the StateBytes check)
}

// roundResult is what one round measured, raw (not yet normalised).
//
// Ops are grouped in blocks of `every`; a control slice runs before the
// first block, between blocks and after the last, so block j sits
// between slices j and j+1 and is normalised by the control speed
// measured right around it.
type roundResult struct {
	PreNS      int64     // round start → first slice: world set-up, state fill
	WarmNS     []int64   // per warm-up op
	OpNS       []int64   // per timed op
	Every      int       // ops per block
	BlockCPU   []int64   // per block (warm-up blocks first): process CPU ns
	CtlUnitNS  []float64 // per slice: wall ns per control unit; len(blocks)+1
	Mallocs    float64   // timed phase, control slices excluded
	AllocBytes float64   // same
	WireBytes  uint64
	Msgs       uint64
	Failed     int
	// Layer holds workload-derived layer numbers (RunStats and counters).
	Layer map[string]float64
}

// procCounters is the process-wide state sampled at the timed phase's
// edges. ReadMemStats stops the world, so it is only called between ops.
type procCounters struct {
	mallocs    uint64
	allocBytes uint64
}

func readProc() procCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// cpuNow is the process's user+system CPU time.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// meter is the leader's stopwatch for one round. Exactly one goroutine
// is the leader at any time, but leadership moves between rank
// goroutines when the leader is swapped out, so calls are serialised.
type meter struct {
	rc   *roundCtx
	ctl  control
	cost ctlCost
	base time.Time // round start

	mu         sync.Mutex
	start      []int64 // per op, ns since base (op intervals exclude control slices)
	end        []int64
	preNS      int64
	ctlUnitNS  []float64
	blockCPU   []int64
	cpuMark    int64 // process CPU at the end of the last slice
	timedUnits int   // control units run between p0 and p1
	p0, p1     procCounters
	inTimed    bool
	onTimed    func() // called once when the timed phase begins
	roundSpan  int    // span ids of the round and its set-up (0 when untraced)
	setupSpan  int
	err        error
}

func newMeter(rc *roundCtx, base time.Time, ctl control, roundSpan, setupSpan int) *meter {
	n := rc.warm + rc.ops
	return &meter{rc: rc, ctl: ctl, cost: ctlCosts[rc.ctl.name], base: base,
		start: make([]int64, n), end: make([]int64, n), roundSpan: roundSpan, setupSpan: setupSpan}
}

// startControl builds the round's control kernel and runs one unit so
// its first timed slice is not a cold one.
func (rc *roundCtx) startControl() (control, error) {
	ctl, err := rc.ctl.make(rc.seed)
	if err != nil {
		return nil, err
	}
	if err := ctl.unit(); err != nil {
		ctl.close()
		return nil, err
	}
	return ctl, nil
}

// opStart is called by the leader when op k begins (k counts warm-up
// ops too); it closes op k-1, and runs whatever sits between ops: the
// timed phase's opening counters and the control slices.
func (m *meter) opStart(k int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := int64(time.Since(m.base))
	total := len(m.start)
	if k > 0 {
		m.end[k-1] = now
	}
	if k == total {
		m.p1 = readProc()
		m.inTimed = false
	}
	if k == m.rc.warm {
		if m.onTimed != nil {
			m.onTimed()
		}
		m.p0 = readProc()
		m.inTimed = true
	}
	if k%m.rc.every == 0 {
		if k == 0 {
			m.preNS = now
		} else {
			m.blockCPU = append(m.blockCPU, cpuNow()-m.cpuMark)
		}
		m.slice()
		now = int64(time.Since(m.base))
	}
	if k < total {
		m.start[k] = now
	}
}

// slice runs one control slice and records its per-unit wall time.
func (m *meter) slice() {
	t0 := time.Now()
	for i := 0; i < m.rc.ctl.sliceUnits; i++ {
		if err := m.ctl.unit(); err != nil && m.err == nil {
			m.err = err
		}
	}
	m.ctlUnitNS = append(m.ctlUnitNS, float64(time.Since(t0))/float64(m.rc.ctl.sliceUnits))
	if m.inTimed {
		m.timedUnits += m.rc.ctl.sliceUnits
	}
	m.cpuMark = cpuNow()
}

// finish closes the last op and the timed phase.
func (m *meter) finish() { m.opStart(len(m.start)) }

// result turns the meter's readings into a roundResult and, when the
// round is traced, closes the set-up span at the first timed op and
// emits the warm-up span and one op span per timed op.
func (m *meter) result() (roundResult, error) {
	if m.err != nil {
		return roundResult{}, m.err
	}
	w := m.rc.warm
	res := roundResult{
		PreNS:      m.preNS,
		WarmNS:     make([]int64, w),
		OpNS:       make([]int64, m.rc.ops),
		Every:      m.rc.every,
		BlockCPU:   m.blockCPU,
		CtlUnitNS:  m.ctlUnitNS,
		Mallocs:    float64(m.p1.mallocs-m.p0.mallocs) - float64(m.timedUnits)*m.cost.mallocs,
		AllocBytes: float64(m.p1.allocBytes-m.p0.allocBytes) - float64(m.timedUnits)*m.cost.bytes,
		Layer:      map[string]float64{},
	}
	rec, off := m.rc.rec, int64(0)
	if rec != nil {
		off = int64(m.base.Sub(rec.base))
	}
	rec.add("warmup", m.setupSpan, off+m.start[0], off+m.start[w])
	rec.endAt(m.setupSpan, off+m.start[w])
	for i := range res.WarmNS {
		res.WarmNS[i] = m.end[i] - m.start[i]
	}
	for i := range res.OpNS {
		res.OpNS[i] = m.end[w+i] - m.start[w+i]
		rec.add("op", m.roundSpan, off+m.start[w+i], off+m.end[w+i])
	}
	return res, nil
}

// ctlCost is what one control unit allocates; measured once per process
// with nothing else running, and subtracted from the timed phase.
type ctlCost struct{ mallocs, bytes float64 }

var ctlCosts = map[string]ctlCost{}

// calibrateControl measures a kernel's allocations per unit.
func calibrateControl(spec ctlSpec, seed int64) error {
	if _, ok := ctlCosts[spec.name]; ok {
		return nil
	}
	c, err := spec.make(seed)
	if err != nil {
		return err
	}
	defer c.close()
	const n = 8
	for i := 0; i < 2; i++ {
		if err := c.unit(); err != nil {
			return err
		}
	}
	p0 := readProc()
	for i := 0; i < n; i++ {
		if err := c.unit(); err != nil {
			return err
		}
	}
	p1 := readProc()
	ctlCosts[spec.name] = ctlCost{
		mallocs: float64(p1.mallocs-p0.mallocs) / n,
		bytes:   float64(p1.allocBytes-p0.allocBytes) / n,
	}
	return nil
}

// roundMetrics are one round's end-to-end values, speed-normalised.
type roundMetrics struct {
	Scale  float64            `json:"scale"`  // median over blocks of ctl_nominal / ctl_measured
	CtlMS  float64            `json:"ctl_ms"` // median measured wall ms per control unit
	Values map[string]float64 `json:"values"` // normalised
	Raw    map[string]float64 `json:"raw"`    // same timings before normalisation
	P99US  float64            `json:"op_p99_us"`
	// Blocks keeps what a different estimator would need: per timed
	// block, the raw median op time and the control speed around it.
	Blocks []blockStat `json:"blocks"`
}

type blockStat struct {
	P50NS float64 `json:"p50_ns"`
	SumNS float64 `json:"sum_ns"`
	CPUNS float64 `json:"cpu_ns"`
	CtlNS float64 `json:"ctl_ns"` // local control estimate used for this block
}

// normalise multiplies a duration by a scale = ctl_nominal /
// ctl_measured: a host running the control twice as slowly as nominal
// has its durations halved. Rates divide by the same factor.
func normalise(duration, scale float64) float64 { return duration * scale }

// localCtl estimates the control's speed around block j as the median
// of the four slices nearest to it (two before, two after, fewer at the
// round's edges): wide enough that one disturbed slice cannot move it,
// narrow enough to follow a host whose speed shifts within a round.
func localCtl(slices []float64, j int) float64 {
	lo, hi := max(0, j-1), min(len(slices), j+3)
	return median(slices[lo:hi])
}

// deriveRound computes the round's end-to-end metrics. Every op and
// every block's CPU time is scaled by the control speed measured around
// its own block, then the usual statistics are taken.
func deriveRound(res roundResult, nominalNS float64) roundMetrics {
	rm := roundMetrics{CtlMS: median(res.CtlUnitNS) / 1e6,
		Values: map[string]float64{}, Raw: map[string]float64{}}
	warmBlocks := len(res.WarmNS) / res.Every
	scaleOf := func(block int) float64 { return nominalNS / localCtl(res.CtlUnitNS, block) }

	// Set-up: everything before the first slice at the first block's
	// speed, then the warm-up ops block by block.
	setupRaw, setup := float64(res.PreNS), normalise(float64(res.PreNS), scaleOf(0))
	for i, d := range res.WarmNS {
		setupRaw += float64(d)
		setup += normalise(float64(d), scaleOf(i/res.Every))
	}

	ops := len(res.OpNS)
	norm := make([]float64, ops)
	var totalRaw, total, cpuRaw, cpu float64
	scales := make([]float64, 0, ops/res.Every)
	for b := 0; b*res.Every < ops; b++ {
		sc := scaleOf(warmBlocks + b)
		scales = append(scales, sc)
		blk := res.OpNS[b*res.Every : min(ops, (b+1)*res.Every)]
		st := blockStat{P50NS: median(durationsToFloat(blk)), CtlNS: nominalNS / sc}
		for i, d := range blk {
			norm[b*res.Every+i] = normalise(float64(d), sc)
			st.SumNS += float64(d)
		}
		totalRaw += st.SumNS
		total += normalise(st.SumNS, sc)
		if warmBlocks+b < len(res.BlockCPU) {
			st.CPUNS = float64(res.BlockCPU[warmBlocks+b])
			cpuRaw += st.CPUNS
			cpu += normalise(st.CPUNS, sc)
		}
		rm.Blocks = append(rm.Blocks, st)
	}
	rm.Scale = median(scales)

	n := float64(ops)
	rm.Raw["setup_s"], rm.Values["setup_s"] = setupRaw/1e9, setup/1e9
	rm.Raw["op_p50_us"], rm.Values["op_p50_us"] = median(durationsToFloat(res.OpNS))/1e3, median(norm)/1e3
	rm.Raw["cpu_us_per_op"], rm.Values["cpu_us_per_op"] = cpuRaw/n/1e3, cpu/n/1e3
	rm.Raw["ops_per_s"], rm.Values["ops_per_s"] = n/(totalRaw/1e9), n/(total/1e9)
	rm.Values["allocs_per_op"] = res.Mallocs / n
	rm.Values["alloc_kb_per_op"] = res.AllocBytes / n / 1e3
	rm.Values["wire_kb_per_op"] = float64(res.WireBytes) / n / 1e3
	rm.Values["msgs_per_op"] = float64(res.Msgs) / n
	rm.Values["fail_share"] = float64(res.Failed) / n
	rm.P99US = quantile(norm, 0.99) / 1e3
	return rm
}

// medianOfRounds is the invocation's value for each metric.
func medianOfRounds(rounds []roundMetrics) map[string]float64 {
	out := map[string]float64{}
	if len(rounds) == 0 {
		return out
	}
	for name := range rounds[0].Values {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = r.Values[name]
		}
		out[name] = median(xs)
	}
	return out
}

// roundSpreadPct is the per-round IQR/median of one metric, in percent,
// normalised or raw: the number the noise study compares.
func roundSpreadPct(rounds []roundMetrics, name string, raw bool) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		if raw {
			xs = append(xs, r.Raw[name])
		} else {
			xs = append(xs, r.Values[name])
		}
	}
	if len(xs) < 2 {
		return 0
	}
	return 100 * spread(xs)
}

// hostFacts describes the machine a result came from.
type hostFacts struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	TCPTWReuse string `json:"tcp_tw_reuse"`
	Store      string `json:"store"` // "tmpfs" or "disk": where the manager's WAL lives
	StoreDir   string `json:"store_dir"`
}

func readHostFacts() hostFacts {
	h := hostFacts{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), TCPTWReuse: "unknown"}
	if b, err := os.ReadFile("/proc/sys/net/ipv4/tcp_tw_reuse"); err == nil {
		h.TCPTWReuse = strings.TrimSpace(string(b))
	}
	h.StoreDir, h.Store = storeRoot()
	return h
}

// storeRoot picks where the manager's WAL and lease live: tmpfs when
// the host has one (a VM's fsync latency measures the host's disk, not
// the program), else the checkout's build directory.
var storeRoot = sync.OnceValues(func() (dir, kind string) {
	const shm = "/dev/shm"
	if d, err := os.MkdirTemp(shm, "swapbench-probe-*"); err == nil {
		os.Remove(d)
		return shm, "tmpfs"
	}
	return diskRoot(), "disk"
})

// diskRoot is a scratch directory on the checkout's own filesystem.
func diskRoot() string {
	dir := ".bench_build/tmp"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return os.TempDir()
	}
	return dir
}

// setGOMAXPROCS applies min(nproc, 4) and refuses a single-CPU host:
// with one P the two active ranks time-slice and every timing measures
// the scheduler.
func setGOMAXPROCS() error {
	n := min(runtime.NumCPU(), 4)
	if n < 2 {
		return fmt.Errorf("swapbench needs GOMAXPROCS >= 2, host has %d CPU", runtime.NumCPU())
	}
	runtime.GOMAXPROCS(n)
	return nil
}
