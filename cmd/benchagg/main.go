// Command benchagg folds the repo's benchmark evidence into one
// schema-stable document, results/BENCH_summary.json, that CI uploads
// as an artifact: the live `go test -bench` text outputs named on the
// command line are parsed and aggregated per benchmark (min/median/max
// ns/op across -count repetitions, worst-case B/op and allocs/op).
//
// It is also a gate: every benchmark matching -zero-alloc must report
// exactly 0 allocs/op in every run, mirroring the make bench-transport
// awk gate, and the named input files must actually contain benchmark
// lines (a compile error or -bench filter typo fails the aggregation
// instead of producing an empty "all green" summary). A second gate
// holds BenchmarkLocalDeciderDecide/history=20k within 2x of
// /history=256: a decision's cost may not grow with the history behind
// it. A third holds BenchmarkTCPXfer/1MiB under 64 KiB/op: a state
// transfer through the mesh allocates no state-sized buffer. A fourth
// holds BenchmarkStateCodec/4KiB+struct at 0 allocs/op: a registered
// struct is bound field by field at Register and a swap compiles nothing.
//
// Usage:
//
//	benchagg -out results/BENCH_summary.json \
//	    -zero-alloc '^BenchmarkTCPSendDistinctRanks(Causal)?$' \
//	    results/bench-transport.txt results/bench-lens.txt results/bench-codec.txt \
//	    results/bench-sim.txt results/bench-decide.txt
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Summary is the output schema. Field set and ordering are stable:
// downstream tooling (and humans diffing two CI artifacts) may rely on
// byte-identical output for identical inputs.
type Summary struct {
	Schema     string  `json:"schema"` // "repro/bench-summary/v1"
	Benchmarks []Bench `json:"benchmarks"`
	Gates      []Gate  `json:"gates"`
}

// Bench aggregates every run of one benchmark name (GOMAXPROCS suffix
// stripped) from one source file.
type Bench struct {
	Name     string  `json:"name"`
	Source   string  `json:"source"`
	Runs     int     `json:"runs"`
	MinNsOp  float64 `json:"min_ns_op"`
	MedNsOp  float64 `json:"median_ns_op"`
	MaxNsOp  float64 `json:"max_ns_op"`
	BOp      int64   `json:"b_op"`      // worst case across runs
	AllocsOp int64   `json:"allocs_op"` // worst case across runs
}

// Gate records one acceptance rule's verdict so the artifact carries
// the evidence, not just the exit code.
type Gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkFoo-8   5000   123.4 ns/op   16 B/op   2 allocs/op
//
// The B/op and allocs/op columns appear only under -benchmem, behind any
// others: MB/s when the benchmark calls b.SetBytes, one column per
// b.ReportMetric (the figure benchmarks report ratios such as
// "0.7813 cr/none_best").
var (
	benchLine = regexp.MustCompile(`^(Benchmark\S+?)(-\d+)?\s+\d+\s+([0-9.]+) ns/op(.*)$`)
	memCols   = regexp.MustCompile(`\s(\d+) B/op\s+(\d+) allocs/op`)
)

// benchRun is one parsed benchmark execution.
type benchRun struct {
	name     string
	source   string
	nsOp     float64
	bOp      int64
	allocsOp int64
}

// parseBench extracts every benchmark run from one -bench text output.
func parseBench(source string, text string) []benchRun {
	var runs []benchRun
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := benchRun{name: m[1], source: source}
		r.nsOp, _ = strconv.ParseFloat(m[3], 64)
		if mem := memCols.FindStringSubmatch(m[4]); mem != nil {
			r.bOp, _ = strconv.ParseInt(mem[1], 10, 64)
			r.allocsOp, _ = strconv.ParseInt(mem[2], 10, 64)
		}
		runs = append(runs, r)
	}
	return runs
}

// aggregate groups runs by (source, name) into sorted Bench rows.
func aggregate(runs []benchRun) []Bench {
	type key struct{ source, name string }
	groups := make(map[key][]benchRun)
	for _, r := range runs {
		k := key{r.source, r.name}
		groups[k] = append(groups[k], r)
	}
	var out []Bench
	for k, rs := range groups {
		ns := make([]float64, len(rs))
		b := Bench{Name: k.name, Source: k.source, Runs: len(rs)}
		for i, r := range rs {
			ns[i] = r.nsOp
			if r.bOp > b.BOp {
				b.BOp = r.bOp
			}
			if r.allocsOp > b.AllocsOp {
				b.AllocsOp = r.allocsOp
			}
		}
		sort.Float64s(ns)
		b.MinNsOp = ns[0]
		b.MaxNsOp = ns[len(ns)-1]
		b.MedNsOp = ns[len(ns)/2]
		if len(ns)%2 == 0 {
			b.MedNsOp = (ns[len(ns)/2-1] + ns[len(ns)/2]) / 2
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// applyGates evaluates the acceptance rules over the aggregated rows.
func applyGates(benches []Bench, zeroAlloc *regexp.Regexp) []Gate {
	var gates []Gate
	if zeroAlloc != nil {
		matched, worst := 0, int64(0)
		var offender string
		for _, b := range benches {
			if !zeroAlloc.MatchString(b.Name) {
				continue
			}
			matched++
			if b.AllocsOp > worst {
				worst, offender = b.AllocsOp, b.Name
			}
		}
		g := Gate{Name: "zero-alloc", Pass: worst == 0 && matched > 0}
		switch {
		case matched == 0:
			g.Detail = fmt.Sprintf("no benchmark matched %q (filter typo or benchmarks never ran)", zeroAlloc)
		case worst != 0:
			g.Detail = fmt.Sprintf("%s reports %d allocs/op, want 0", offender, worst)
		default:
			g.Detail = fmt.Sprintf("%d benchmarks held 0 allocs/op", matched)
		}
		gates = append(gates, g)
	}
	gates = append(gates, flatCostGate(benches))
	gates = append(gates, xferBytesGate(benches))
	gates = append(gates, structCodecGate(benches))
	gates = append(gates, Gate{
		Name: "benchmarks-ran", Pass: len(benches) > 0,
		Detail: fmt.Sprintf("%d aggregated benchmark rows", len(benches)),
	})
	return gates
}

// A decision may not cost more over a long history than over a short
// one: the swap manager's windowed means are running sums, and a scan
// that crept back in would show as the ratio of the window sizes (78).
const (
	flatCostShort = "BenchmarkLocalDeciderDecide/history=256"
	flatCostLong  = "BenchmarkLocalDeciderDecide/history=20k"
	flatCostRatio = 2.0
)

// flatCostGate compares the two benchmarks' median ns/op. Like the
// zero-alloc gate it fails when they never ran.
func flatCostGate(benches []Bench) Gate {
	var short, long float64
	for _, b := range benches {
		switch b.Name {
		case flatCostShort:
			short = b.MedNsOp
		case flatCostLong:
			long = b.MedNsOp
		}
	}
	g := Gate{Name: "flat-decide-cost"}
	if short <= 0 || long <= 0 {
		g.Detail = fmt.Sprintf("%s and %s did not both run", flatCostShort, flatCostLong)
		return g
	}
	g.Pass = long <= flatCostRatio*short
	g.Detail = fmt.Sprintf("history=20k %.0f ns/op over history=256 %.0f ns/op = %.2f, want <= %g",
		long, short, long/short, flatCostRatio)
	return g
}

// A 1 MiB payload crosses the mesh without a buffer of its size being
// allocated for it: the sender writes it from the caller's slice and the
// receiver reads it into the buffer the last one was released from. A
// staging copy that crept back in would show as the payload's size.
const (
	xferBench    = "BenchmarkTCPXfer/1MiB"
	xferMaxBytes = 64 << 10
)

// xferBytesGate bounds the benchmark's worst B/op. Like the other gates
// it fails when the benchmark never ran.
func xferBytesGate(benches []Bench) Gate {
	g := Gate{Name: "xfer-no-staging", Detail: xferBench + " did not run"}
	for _, b := range benches {
		if b.Name == xferBench {
			g.Pass = b.BOp < xferMaxBytes
			g.Detail = fmt.Sprintf("%s allocates %d B/op, want < %d", xferBench, b.BOp, xferMaxBytes)
		}
	}
	return g
}

// The benchmark workloads' registration (an int, a four-field struct, a
// 4 KiB grid) saves and loads without allocating: the struct travels as
// its fields. One that fell back to the gob section would show as the
// decoder engine gob compiles per stream (178 allocations).
const structCodecBench = "BenchmarkStateCodec/4KiB+struct"

// structCodecGate holds the benchmark's worst allocs/op at 0. Like the
// other gates it fails when the benchmark never ran.
func structCodecGate(benches []Bench) Gate {
	g := Gate{Name: "struct-codec-no-alloc", Detail: structCodecBench + " did not run"}
	for _, b := range benches {
		if b.Name == structCodecBench {
			g.Pass = b.AllocsOp == 0
			g.Detail = fmt.Sprintf("%s reports %d allocs/op, want 0", structCodecBench, b.AllocsOp)
		}
	}
	return g
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchagg:", err)
		os.Exit(1)
	}
}

// run folds the bench captures args name into one summary, written to
// -out or stdout, and reports each gate on stderr; a failed gate is its
// error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchagg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "write the summary JSON here (default stdout)")
		zeroAlloc = fs.String("zero-alloc", "", "regexp of benchmark names that must report 0 allocs/op in every run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no bench output files named (want `go test -bench` text captures)")
	}

	var zre *regexp.Regexp
	if *zeroAlloc != "" {
		var err error
		if zre, err = regexp.Compile(*zeroAlloc); err != nil {
			return err
		}
	}

	var runs []benchRun
	for _, path := range fs.Args() {
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rs := parseBench(filepath.Base(path), string(text))
		if len(rs) == 0 {
			return fmt.Errorf("%s contains no benchmark result lines", path)
		}
		runs = append(runs, rs...)
	}

	sum := Summary{Schema: "repro/bench-summary/v1", Benchmarks: aggregate(runs)}
	sum.Gates = applyGates(sum.Benchmarks, zre)

	enc, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if *out == "" {
		_, err = stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	if err != nil {
		return err
	}

	failed := 0
	for _, g := range sum.Gates {
		status := "ok"
		if !g.Pass {
			status = "FAIL"
			failed++
		}
		fmt.Fprintf(stderr, "benchagg: gate %s: %s (%s)\n", g.Name, status, g.Detail)
	}
	if failed > 0 {
		return fmt.Errorf("%d gate(s) failed", failed)
	}
	return nil
}
