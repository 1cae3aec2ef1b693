// Command bench is the repository's swap-cost benchmark: five
// closed-loop workloads on fixed operation counts, every output
// checked, timings normalised by an interleaved control kernel, and an
// outside-in per-layer ledger from a separate traced run.
//
//	go run ./bench                                 all workloads, table + result line
//	go run ./bench -workload swap-small -trace 1   traced run, per-layer metrics
//	go run ./bench -aa 5                           A/A self-check
//	go run ./bench -compare a.json b.json          compare two result files
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const (
	defaultSeed  = 20030623
	smokeDivisor = 100
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	out      string
	aa       int
	compare  bool
	zeroFill bool // test-only, not a flag
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed for state contents, victim schedule and simulator base seed")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "nominal measured seconds per workload; op counts scale with it")
	flag.IntVar(&o.trace, "trace", 0, "1: also make the traced run and report per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "ops / 100, one round: exercises every path quickly")
	flag.StringVar(&o.out, "out", "", "write the full result JSON to this file")
	flag.IntVar(&o.aa, "aa", 0, "A/A self-check: run two interleaved sets of this many invocations")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments")
	flag.Parse()

	var err error
	switch {
	case o.compare:
		err = compareFiles(os.Stdout, flag.Args())
	case o.aa > 0:
		err = runAA(os.Stdout, o)
	default:
		err = runMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swapbench:", err)
		os.Exit(1)
	}
}

// runMain is one invocation: run, print, and exit non-zero when any
// correctness check failed.
func runMain(o options) error {
	res, err := runInvocation(o)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res, o.trace == 1)
	if o.out != "" {
		if err := writeJSON(o.out, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res.resultLine)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed their correctness check", res.Failed, res.Attempted)
	}
	return nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the full outcome of one invocation (the -out file).
type result struct {
	resultLine
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Trace     bool                       `json:"trace"`
	Host      hostFacts                  `json:"host"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Layers    map[string]metricValue     `json:"layers,omitempty"`
	Ledgers   map[string][]ledgerLine    `json:"ledgers,omitempty"`
}

// workloadResult is one workload's share of an invocation.
type workloadResult struct {
	Control   string                 `json:"control"`
	Ops       int                    `json:"ops_per_round"`
	Warm      int                    `json:"warmup_per_round"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"` // median over rounds, normalised
	P99US     float64                `json:"op_p99_us"`
	SpreadPct float64                `json:"round_spread_pct"`     // normalised op_p50_us, IQR/median over rounds
	RawSpread float64                `json:"raw_round_spread_pct"` // same before normalisation
	Rounds    []roundMetrics         `json:"raw"`                  // per-round values and scale factors
	Traced    *roundMetrics          `json:"traced,omitempty"`
	layer     map[string]float64     // from the traced round
}

type ledgerLine struct {
	Metric string  `json:"metric"`
	Calls  float64 `json:"calls"`
	US     float64 `json:"us"`
	Why    string  `json:"why"`
}

// runInvocation runs the selected workloads' rounds round-robin and,
// when tracing, the traced rounds and the probe phase.
func runInvocation(o options) (*result, error) {
	if err := setGOMAXPROCS(); err != nil {
		return nil, err
	}
	var selected []*workload
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	nRounds, divisor := rounds, 1
	if o.smoke {
		nRounds, divisor = 1, smokeDivisor
	}

	res := &result{Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1, Host: readHostFacts(),
		Workloads: map[string]*workloadResult{}}
	round := func(w *workload, r int, rec *recorder) (roundMetrics, roundResult, error) {
		spec := controls[w.control]
		if err := calibrateControl(spec, o.seed); err != nil {
			return roundMetrics{}, roundResult{}, err
		}
		rc := &roundCtx{seed: o.seed, round: r, ctl: spec, rec: rec, zeroFill: o.zeroFill}
		rc.ops, rc.warm, rc.every = w.scaled(o.seconds, divisor)
		// Every round starts from a collected heap, so the GC phase a
		// round begins in does not depend on what ran before it.
		runtime.GC()
		rr, err := w.run(rc)
		if err != nil {
			return roundMetrics{}, rr, fmt.Errorf("%s round %d: %w", w.name, r, err)
		}
		return deriveRound(rr, spec.nominalNS), rr, nil
	}

	for _, w := range selected {
		ops, warm, _ := w.scaled(o.seconds, divisor)
		res.Workloads[w.name] = &workloadResult{Control: w.control, Ops: ops, Warm: warm}
	}
	for r := 0; r < nRounds; r++ {
		for _, w := range selected {
			rm, rr, err := round(w, r, nil)
			if err != nil {
				return nil, err
			}
			wr := res.Workloads[w.name]
			wr.Rounds = append(wr.Rounds, rm)
			wr.Attempted += wr.Ops
			wr.Failed += rr.Failed
		}
	}
	for _, w := range selected {
		wr := res.Workloads[w.name]
		wr.Metrics = map[string]metricValue{}
		med := medianOfRounds(wr.Rounds)
		for _, d := range printed {
			wr.Metrics[d.name] = metricValue{med[d.name], d.unit}
		}
		p99 := make([]float64, len(wr.Rounds))
		for i, rm := range wr.Rounds {
			p99[i] = rm.P99US
		}
		wr.P99US = median(p99)
		wr.SpreadPct = roundSpreadPct(wr.Rounds, "op_p50_us", false)
		wr.RawSpread = roundSpreadPct(wr.Rounds, "op_p50_us", true)
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
	}

	if o.trace == 1 {
		if err := traceRun(o, res, selected, round); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0
	res.Metrics = res.contractMetrics(selected, o.trace == 1)
	return res, nil
}

// traceRun makes one traced round of every workload (each writes its
// span file), the probe phase, and assembles the per-layer metrics.
// End-to-end numbers are never taken from here.
func traceRun(o options, res *result, selected []*workload,
	round func(*workload, int, *recorder) (roundMetrics, roundResult, error)) error {
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Spans stay in memory until the run ends.
	recs := map[string]*recorder{"probe": newRecorder(rounds + 1)}
	defer func() {
		for name, rec := range recs {
			if err := rec.writeJSONL(filepath.Join(dir, "trace-"+name+".jsonl")); err != nil {
				fmt.Fprintln(os.Stderr, "swapbench: write trace:", err)
			}
		}
	}()
	traced := map[string]*workloadResult{}
	for i := range workloads {
		w := &workloads[i]
		recs[w.name] = newRecorder(rounds)
		rm, rr, err := round(w, rounds, recs[w.name])
		if err != nil {
			return err
		}
		wr := res.Workloads[w.name]
		if wr == nil { // not selected: traced only, kept out of the result's workloads
			wr = &workloadResult{Control: w.control, Ops: len(rr.OpNS), Warm: len(rr.WarmNS)}
		}
		wr.Traced, wr.layer = &rm, rr.Layer
		traced[w.name] = wr
		res.Attempted += wr.Ops
		res.Failed += rr.Failed
	}
	layers, err := runProbes(recs["probe"], o.seed, o.smoke)
	if err != nil {
		return err
	}

	// Workload-derived layer metrics.
	own := "swap-small"
	if n := selected[0].name; n == "swap-large" || n == "managed-swap" {
		own = n
	}
	for name, src := range layerSource {
		if src == "" {
			src = own
		}
		layers[name] = traced[src].layer[name]
	}
	layers["mpi.wire_kb_per_op"] = traced[own].Traced.Values["wire_kb_per_op"]
	layers["mpi.msgs_per_op"] = traced[own].Traced.Values["msgs_per_op"]

	// The ledgers: Σ layer × calls + unattributed = traced raw op p50.
	res.Ledgers = map[string][]ledgerLine{}
	for _, l := range []struct {
		workload, metric string
		large            bool
	}{{"swap-small", "swaprt.unattributed_us", false}, {"swap-large", "swaprt.unattributed_large_us", true}} {
		opUS := traced[l.workload].Traced.Raw["op_p50_us"]
		rows := swapLedger(l.large)
		_, rest := ledger(rows, layers, opUS)
		layers[l.metric] = rest
		var lines []ledgerLine
		for _, r := range rows {
			lines = append(lines, ledgerLine{r.metric, r.calls, layers[r.metric] * r.calls, r.why})
		}
		lines = append(lines, ledgerLine{l.metric, 1, rest, "traced op p50 minus the rows above"},
			ledgerLine{"traced op_p50_us (raw)", 1, opUS, "the sum of all rows"})
		res.Ledgers[l.workload] = lines
	}
	layers["swaprt.swap_time_paid_over_predicted"] =
		traced["swap-large"].Traced.Raw["op_p50_us"] / layers["core.swap_time_predicted_us"]

	// harness.*: the first selected workload's own diagnostics.
	wr := res.Workloads[selected[0].name]
	scales, ctls := make([]float64, len(wr.Rounds)), make([]float64, len(wr.Rounds))
	for i, rm := range wr.Rounds {
		scales[i], ctls[i] = rm.Scale, rm.CtlMS
	}
	untraced := wr.Metrics["ops_per_s"].Value
	layers["harness.op_p99_us"] = wr.P99US
	layers["harness.samples"] = float64(wr.Ops * len(wr.Rounds))
	layers["harness.scale"] = median(scales)
	layers["harness.ctl_ms"] = median(ctls)
	layers["harness.round_spread_pct"] = wr.SpreadPct
	layers["harness.trace_overhead_pct"] = 100 * (untraced - wr.Traced.Values["ops_per_s"]) / untraced
	layers["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	res.Layers = map[string]metricValue{}
	for _, d := range perLayer {
		v, ok := layers[d.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.name)
		}
		res.Layers[d.name] = metricValue{v, d.unit}
	}
	return nil
}

// contractMetrics are the metrics of the last output line: the
// per-layer ones of a traced run, else the end-to-end ones. With one
// workload the names are bare, as the driver expects; with several they
// are prefixed "<workload>/".
func (res *result) contractMetrics(selected []*workload, trace bool) map[string]metricValue {
	if trace {
		return res.Layers
	}
	metrics := map[string]metricValue{}
	for _, w := range selected {
		prefix := ""
		if len(selected) > 1 {
			prefix = w.name + "/"
		}
		for _, d := range endToEnd {
			metrics[prefix+d.name] = res.Workloads[w.name].Metrics[d.name]
		}
	}
	return metrics
}

// outDir is where span files and result sets go: bench/out under the
// repository root, wherever the command was started from.
func outDir() string {
	if _, err := os.Stat("bench"); err != nil {
		return "out" // started inside bench/ (go test)
	}
	return filepath.Join("bench", "out")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name and unit.
func printResult(w io.Writer, res *result, trace bool) {
	h := res.Host
	fmt.Fprintf(w, "swapbench seed=%d seconds=%g nproc=%d gomaxprocs=%d %s tcp_tw_reuse=%s store=%s\n",
		res.Seed, res.Seconds, h.NProc, h.GoMaxProcs, h.GoVersion, h.TCPTWReuse, h.Store)
	names := make([]string, 0, len(res.Workloads))
	for i := range workloads {
		if wr := res.Workloads[workloads[i].name]; wr != nil && len(wr.Rounds) > 0 {
			names = append(names, workloads[i].name)
		}
	}
	for _, name := range names {
		wr := res.Workloads[name]
		fmt.Fprintf(w, "\n%s  (control %s, %d rounds x %d ops + %d warm-up, %d samples)\n",
			name, wr.Control, len(wr.Rounds), wr.Ops, wr.Warm, wr.Ops*len(wr.Rounds))
		for _, d := range printed {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", d.name, wr.Metrics[d.name].Value, d.unit)
		}
		fmt.Fprintf(w, "  %-18s %14.4f us   (not gated)\n", "harness.op_p99_us", wr.P99US)
		fmt.Fprintf(w, "  %-18s %14.2f %%    (raw %.2f %%)\n", "round spread p50", wr.SpreadPct, wr.RawSpread)
	}
	if !trace {
		return
	}
	fmt.Fprintf(w, "\nper-layer metrics (traced run + probe phase, raw timings)\n")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-40s %16.4f %s\n", d.name, res.Layers[d.name].Value, d.unit)
	}
	ledgerNames := make([]string, 0, len(res.Ledgers))
	for name := range res.Ledgers {
		ledgerNames = append(ledgerNames, name)
	}
	sort.Strings(ledgerNames)
	for _, name := range ledgerNames {
		fmt.Fprintf(w, "\nledger %s (us per op)\n", name)
		for _, l := range res.Ledgers[name] {
			fmt.Fprintf(w, "  %-32s x %-4g %12.2f  %s\n", l.Metric, l.Calls, l.US, l.Why)
		}
	}
	fmt.Fprintln(w, strings.Repeat("-", 8))
}
