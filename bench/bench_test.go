package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7}
	if got := median(xs); got != 5 {
		t.Errorf("median = %g, want 5", got)
	}
	if got := quantile(xs, 0.25); got != 3 {
		t.Errorf("q25 = %g, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, 2, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 9, 3, 7}, 2, 8},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rounds := []roundMetrics{
		{Values: map[string]float64{"op_p50_us": 300, "ops_per_s": 3000}},
		{Values: map[string]float64{"op_p50_us": 900, "ops_per_s": 1000}},
		{Values: map[string]float64{"op_p50_us": 310, "ops_per_s": 2900}},
	}
	got := medianOfRounds(rounds)
	if got["op_p50_us"] != 310 || got["ops_per_s"] != 2900 {
		t.Errorf("medianOfRounds = %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// round [0,100] ── setup [0,30] ── world.new [5,15], warmup [10,30] (overlap 10–15)
	//              └─ op [40,60], op [70,120] (reaches past its parent)
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: 0, ID: 1},
		{Name: "setup", Start: 0, End: 30, Parent: 1, ID: 2},
		{Name: "world.new", Start: 5, End: 15, Parent: 2, ID: 3},
		{Name: "warmup", Start: 10, End: 30, Parent: 2, ID: 4},
		{Name: "op", Start: 40, End: 60, Parent: 1, ID: 5},
		{Name: "op", Start: 70, End: 120, Parent: 1, ID: 6},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - 30 - 20 - 30, // children cover [0,30], [40,60], [70,100]
		2: 30 - 25,            // children cover [5,30] once
		3: 10, 4: 20, 5: 20, 6: 50,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	a, b, c := make([]float64, 512), make([]float64, 512), make([]float64, 512)
	fillGrid(a, 42, 0, false)
	fillGrid(b, 42, 0, false)
	fillGrid(c, 43, 0, false)
	if hashGrid(a) != hashGrid(b) {
		t.Error("same seed gave different grids")
	}
	if hashGrid(a) == hashGrid(c) {
		t.Error("different seeds gave the same grid")
	}
	for _, v := range a {
		if v < 1 || v >= 2 || math.Float64bits(v)&1 == 0 {
			t.Fatalf("grid value %x is not full-mantissa in [1,2)", math.Float64bits(v))
		}
	}
	for k := 0; k < 50; k++ {
		touch(a, 42, k, 1, false)
		if !touch(a, 42, k, 1, true) {
			t.Fatalf("touch(%d) does not verify its own write", k)
		}
	}
	if touch(b, 42, 7, 1, true) {
		t.Error("verify passed on a grid that was never touched")
	}

	s1, s2 := newSchedule(42, 2, 100), newSchedule(42, 2, 100)
	for k := range s1.victim {
		if s1.victim[k] != s2.victim[k] || s1.in[k] != s2.in[k] || s1.pos[k] != s2.pos[k] {
			t.Fatalf("schedules differ at %d", k)
		}
		if s1.pos[k] != (k+42%2)%2 {
			t.Fatalf("position at %d = %d: must alternate between comm rank 0 and 1", k, s1.pos[k])
		}
		if s1.victim[k] == s1.in[k] {
			t.Fatalf("iteration %d swaps rank %d with itself", k, s1.in[k])
		}
		if k > 0 && s1.in[k] != s1.victim[k-1] {
			t.Fatalf("iteration %d: incoming rank %d is not the one spare", k, s1.in[k])
		}
	}
	if newSchedule(43, 2, 100).pos[0] == s1.pos[0] {
		t.Error("the seed does not move the schedule's phase")
	}
}

func TestNormalisation(t *testing.T) {
	// One warm-up block and two timed blocks of two ops each.
	res := roundResult{
		PreNS:     300e6,
		WarmNS:    []int64{100e6, 100e6},
		OpNS:      []int64{100e3, 200e3, 300e3, 400e3},
		Every:     2,
		BlockCPU:  []int64{7e6, 1e6, 1e6},
		CtlUnitNS: []float64{1e6, 1e6, 1e6, 1e6},
		Mallocs:   400, AllocBytes: 8000, WireBytes: 4000, Msgs: 32,
	}
	same := deriveRound(res, 1e6)
	if same.Scale != 1 {
		t.Fatalf("scale = %g, want 1", same.Scale)
	}
	for k, raw := range same.Raw {
		if same.Values[k] != raw {
			t.Errorf("scale 1 changed %s: %g -> %g", k, raw, same.Values[k])
		}
	}
	if same.Values["op_p50_us"] != 250 || same.Values["ops_per_s"] != 4000 ||
		same.Values["cpu_us_per_op"] != 500 || same.Values["setup_s"] != 0.5 {
		t.Errorf("values = %v", same.Values)
	}
	// A host running the control twice as slowly as nominal: durations
	// halve, rates double, counts do not move.
	for i := range res.CtlUnitNS {
		res.CtlUnitNS[i] = 2e6
	}
	slow := deriveRound(res, 1e6)
	if slow.Scale != 0.5 {
		t.Fatalf("scale = %g, want 0.5", slow.Scale)
	}
	for _, k := range []string{"op_p50_us", "cpu_us_per_op", "setup_s"} {
		if !near(slow.Values[k], same.Values[k]/2) {
			t.Errorf("%s = %g, want %g", k, slow.Values[k], same.Values[k]/2)
		}
	}
	if !near(slow.Values["ops_per_s"], 2*same.Values["ops_per_s"]) {
		t.Errorf("ops_per_s = %g, want %g", slow.Values["ops_per_s"], 2*same.Values["ops_per_s"])
	}
	for _, k := range []string{"allocs_per_op", "alloc_kb_per_op", "wire_kb_per_op", "msgs_per_op"} {
		if slow.Values[k] != same.Values[k] {
			t.Errorf("count %s moved with the scale", k)
		}
	}
	if slow.Values["allocs_per_op"] != 100 || slow.Values["wire_kb_per_op"] != 1 || slow.Values["msgs_per_op"] != 8 {
		t.Errorf("counts = %v", slow.Values)
	}
}

// TestLocalNormalisation: a host that halves its speed in the middle of
// a round. Each block is scaled by the control speed measured around
// it, so the normalised median is the fast-host value; one scale for
// the whole round would report something in between.
func TestLocalNormalisation(t *testing.T) {
	res := roundResult{Every: 2, CtlUnitNS: []float64{1e6, 1e6, 1e6, 1e6, 2e6, 2e6, 2e6, 2e6, 2e6}}
	for b := 0; b < 8; b++ {
		d := int64(100e3)
		if b >= 4 {
			d = 200e3
		}
		res.OpNS = append(res.OpNS, d, d)
		res.BlockCPU = append(res.BlockCPU, 2*d)
	}
	rm := deriveRound(res, 1e6)
	if rm.Raw["op_p50_us"] != 150 {
		t.Errorf("raw p50 = %g, want 150", rm.Raw["op_p50_us"])
	}
	if rm.Values["op_p50_us"] != 100 {
		t.Errorf("normalised p50 = %g, want 100", rm.Values["op_p50_us"])
	}
	if got := localCtl(res.CtlUnitNS, 0); got != 1e6 {
		t.Errorf("localCtl at the first block = %g", got)
	}
	if got := localCtl(res.CtlUnitNS, 7); got != 2e6 {
		t.Errorf("localCtl at the last block = %g", got)
	}
	// One disturbed slice does not move its neighbours' estimate.
	spiky := []float64{1e6, 1e6, 9e6, 1e6, 1e6, 1e6}
	for j := 0; j < 5; j++ {
		if got := localCtl(spiky, j); got != 1e6 {
			t.Errorf("localCtl(spiky, %d) = %g, want 1e6", j, got)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"op_p50_us", "us", "lower", 0.10}
	higher := metricDef{"ops_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d          metricDef
		a, b       float64
		sa, sb     float64
		wantResult string
	}{
		{lower, 100, 104, 0.02, 0.03, "unchanged"},
		{lower, 100, 115, 0.02, 0.03, "regressed"},
		{lower, 100, 85, 0.02, 0.03, "improved"},
		{lower, 100, 130, 0.02, 0.12, "unresolved"},
		{higher, 100, 85, 0.02, 0.03, "regressed"},
		{higher, 100, 115, 0.02, 0.03, "improved"},
	} {
		if _, v := verdict(c.d, c.a, c.b, c.sa, c.sb); v != c.wantResult {
			t.Errorf("verdict(%s, %g -> %g) = %s, want %s", c.d.name, c.a, c.b, v, c.wantResult)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the Go tables
// together: same names, units, directions, bounds, workloads, run length.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, want %d", bf.RunSeconds, runSeconds)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's %q / %q",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, file []benchmarkMetric, table []metricDef, bounded bool) {
		if len(file) != len(table) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(table))
		}
		for _, m := range file {
			d := findMetric(table, m.Name)
			if d == nil {
				t.Errorf("%s metric %s is in BENCHMARK.json but the program does not emit it", kind, m.Name)
				continue
			}
			if m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s metric %s: %s/%s in BENCHMARK.json, %s/%s in the program",
					kind, m.Name, m.Unit, m.Better, d.unit, d.better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.bound) {
				t.Errorf("%s metric %s: bound mismatch", kind, m.Name)
			}
		}
		for _, d := range table {
			found := false
			for _, m := range file {
				found = found || m.Name == d.name
			}
			if !found {
				t.Errorf("%s metric %s is emitted but missing from BENCHMARK.json", kind, d.name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark refuses to run with fewer than 2 CPUs")
	}
}

// TestSmoke drives every workload, the traced run and the probe phase
// at a hundredth of the size, so API drift in swaprt, mpi or experiment
// breaks go test and not the next benchmark run. It also holds the
// emitted metric names against BENCHMARK.json in both directions.
func TestSmoke(t *testing.T) {
	needTwoCPUs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	bf := readBenchmarkFile(t)
	for _, trace := range []int{0, 1} {
		res, err := runInvocation(options{workload: "all", seed: defaultSeed, seconds: runSeconds, smoke: true, trace: trace})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace %d: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		if trace == 0 {
			for _, w := range workloads {
				for _, m := range bf.EndToEnd {
					v, ok := res.Metrics[w.name+"/"+m.Name]
					if !ok || v.Unit != m.Unit || v.Value <= 0 || math.IsNaN(v.Value) {
						t.Errorf("%s/%s = %+v (present %v)", w.name, m.Name, v, ok)
					}
				}
			}
			if want := len(workloads) * len(bf.EndToEnd); len(res.Metrics) != want {
				t.Errorf("%d end-to-end metrics emitted, want %d", len(res.Metrics), want)
			}
			continue
		}
		for _, m := range bf.PerLayer {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("per-layer %s = %+v (present %v)", m.Name, v, ok)
			}
		}
		if len(res.Metrics) != len(bf.PerLayer) {
			t.Errorf("%d per-layer metrics emitted, want %d", len(res.Metrics), len(bf.PerLayer))
		}
		// The ledgers add up by construction.
		for name, lines := range res.Ledgers {
			sum := 0.0
			for _, l := range lines[:len(lines)-1] {
				sum += l.US
			}
			if total := lines[len(lines)-1].US; !near(sum, total) {
				t.Errorf("ledger %s: rows sum to %g, traced op p50 is %g", name, sum, total)
			}
		}
		for _, w := range workloads {
			if _, err := os.Stat("out/trace-" + w.name + ".jsonl"); err != nil {
				t.Errorf("span file: %v", err)
			}
		}
	}
}

// TestZeroFillTripsStateBytes: a compressible grid ships fewer bytes
// than its nominal size, which the StateBytes check must catch.
func TestZeroFillTripsStateBytes(t *testing.T) {
	needTwoCPUs(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	res, err := runInvocation(options{workload: "swap-large", seed: defaultSeed, seconds: runSeconds, smoke: true, zeroFill: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("zero-filled grid passed: correct=%v failed=%d", res.Correct, res.Failed)
	}
}
