package main

import (
	"regexp"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTCPSendDistinctRanks-4   	    5000	       126.7 ns/op	     134 B/op	       0 allocs/op
BenchmarkTCPSendDistinctRanks-4   	    5000	       141.0 ns/op	     120 B/op	       0 allocs/op
BenchmarkTCPSendDistinctRanks-4   	    5000	       179.0 ns/op	     110 B/op	       0 allocs/op
BenchmarkLensDisabled-4           	88059078	        13.55 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseBenchExtractsRuns(t *testing.T) {
	runs := parseBench("bench.txt", sampleBench)
	if len(runs) != 4 {
		t.Fatalf("parsed %d runs, want 4", len(runs))
	}
	if runs[0].name != "BenchmarkTCPSendDistinctRanks" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", runs[0].name)
	}
	if runs[0].nsOp != 126.7 || runs[0].bOp != 134 || runs[0].allocsOp != 0 {
		t.Fatalf("run 0 = %+v", runs[0])
	}
}

// TestParseBenchThroughputColumn: a benchmark that calls b.SetBytes puts
// an MB/s column between ns/op and B/op; the memory columns behind it
// must not read as zero.
func TestParseBenchThroughputColumn(t *testing.T) {
	runs := parseBench("codec.txt",
		"BenchmarkStateCodec/1MiB-2   \t    3123\t    406837 ns/op\t2577.39 MB/s\t     676 B/op\t       3 allocs/op\n")
	if len(runs) != 1 || runs[0].name != "BenchmarkStateCodec/1MiB" ||
		runs[0].nsOp != 406837 || runs[0].bOp != 676 || runs[0].allocsOp != 3 {
		t.Fatalf("runs = %+v", runs)
	}
}

// TestParseBenchCustomMetricColumns: the figure benchmarks put one
// b.ReportMetric column per series between ns/op and the memory columns,
// and sub-benchmarks carry a slash in their names.
func TestParseBenchCustomMetricColumns(t *testing.T) {
	runs := parseBench("bench-sim.txt",
		"BenchmarkFig4Techniques-2   \t     195\t   6034835 ns/op\t         0.7813 cr/none_best\t         0.8363 dlb/none_best\t 2678880 B/op\t   16863 allocs/op\n"+
			"BenchmarkPolicyDecide/DecideExplained-2 \t 500000\t 2100 ns/op\t 1488 B/op\t 9 allocs/op\n")
	if len(runs) != 2 || runs[0].name != "BenchmarkFig4Techniques" ||
		runs[0].nsOp != 6034835 || runs[0].bOp != 2678880 || runs[0].allocsOp != 16863 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[1].name != "BenchmarkPolicyDecide/DecideExplained" || runs[1].allocsOp != 9 {
		t.Fatalf("runs = %+v", runs)
	}
}

func TestAggregateStats(t *testing.T) {
	benches := aggregate(parseBench("bench.txt", sampleBench))
	if len(benches) != 2 {
		t.Fatalf("aggregated %d rows, want 2", len(benches))
	}
	// Sorted by (source, name): LensDisabled before TCPSend.
	if benches[0].Name != "BenchmarkLensDisabled" {
		t.Fatalf("row order: %q first", benches[0].Name)
	}
	tcp := benches[1]
	if tcp.Runs != 3 || tcp.MinNsOp != 126.7 || tcp.MedNsOp != 141.0 || tcp.MaxNsOp != 179.0 {
		t.Fatalf("tcp stats = %+v", tcp)
	}
	if tcp.BOp != 134 {
		t.Fatalf("worst-case B/op = %d, want 134", tcp.BOp)
	}
}

func TestZeroAllocGate(t *testing.T) {
	benches := aggregate(parseBench("bench.txt", sampleBench))
	re := regexp.MustCompile(`^BenchmarkTCPSendDistinctRanks$`)

	gates := applyGates(benches, re)
	if len(gates) != 5 || !gates[0].Pass || !gates[4].Pass {
		t.Fatalf("clean input should pass the zero-alloc and benchmarks-ran gates: %+v", gates)
	}

	// A regression to 1 alloc/op must flip the gate.
	dirty := aggregate(parseBench("bench.txt",
		"BenchmarkTCPSendDistinctRanks-4 5000 140.0 ns/op 72 B/op 1 allocs/op\n"))
	gates = applyGates(dirty, re)
	if gates[0].Pass {
		t.Fatalf("1 allocs/op passed the zero-alloc gate: %+v", gates[0])
	}

	// A filter that matches nothing must fail too, not vacuously pass.
	gates = applyGates(benches, regexp.MustCompile(`^BenchmarkTypo$`))
	if gates[0].Pass {
		t.Fatalf("empty match passed the zero-alloc gate: %+v", gates[0])
	}
}

// The flat-cost gate holds a decision over a long history within 2x of
// one over a short history, on medians, and fails when either side never
// ran.
func TestFlatCostGate(t *testing.T) {
	row := func(name string, ns ...string) string {
		out := ""
		for _, v := range ns {
			out += name + "-2 \t 1000000\t " + v + " ns/op\t 160 B/op\t 4 allocs/op\n"
		}
		return out
	}
	for _, c := range []struct {
		name string
		text string
		pass bool
	}{
		{"flat", row(flatCostShort, "900", "950", "5000") + row(flatCostLong, "1100", "1000", "990"), true},
		{"grows with the history", row(flatCostShort, "900", "950", "1000") + row(flatCostLong, "1901", "70000", "1000"), false},
		{"long side never ran", row(flatCostShort, "900"), false},
		{"neither ran", sampleBench, false},
	} {
		if g := flatCostGate(aggregate(parseBench("bench-decide.txt", c.text))); g.Pass != c.pass {
			t.Errorf("%s: gate %+v, want pass=%v", c.name, g, c.pass)
		}
	}
}

// The transfer gate holds a 1 MiB transfer through the mesh under
// 64 KiB/op in its worst run, and fails when the benchmark never ran.
func TestXferBytesGate(t *testing.T) {
	row := func(bOp string) string {
		return "BenchmarkTCPXfer/1MiB-2 \t 2000\t 472525 ns/op\t2219.09 MB/s\t " + bOp + " B/op\t 0 allocs/op\n"
	}
	for _, c := range []struct {
		name string
		text string
		pass bool
	}{
		{"no state-sized buffer", row("531") + row("0") + row("12044"), true},
		{"one run staged the payload", row("531") + row("1048743") + row("0"), false},
		{"only the other sizes ran", "BenchmarkTCPXfer/4KiB-2 \t 2000\t 40987 ns/op\t 99.93 MB/s\t 0 B/op\t 0 allocs/op\n", false},
	} {
		if g := xferBytesGate(aggregate(parseBench("bench-transport.txt", c.text))); g.Pass != c.pass {
			t.Errorf("%s: gate %+v, want pass=%v", c.name, g, c.pass)
		}
	}
}

// The struct-codec gate holds the benchmark workloads' registration at
// 0 allocs/op in its worst run, and fails when the benchmark never ran.
func TestStructCodecGate(t *testing.T) {
	row := func(allocs string) string {
		return "BenchmarkStateCodec/4KiB+struct-2 \t 1144156\t 1114 ns/op\t3677.31 MB/s\t 0 B/op\t " + allocs + " allocs/op\n"
	}
	for _, c := range []struct {
		name string
		text string
		pass bool
	}{
		{"struct copied field by field", row("0") + row("0") + row("0"), true},
		{"one run went through gob", row("0") + row("188") + row("0"), false},
		{"only the plain sizes ran", "BenchmarkStateCodec/4KiB-2 \t 1526006\t 794.5 ns/op\t5155.57 MB/s\t 0 B/op\t 0 allocs/op\n", false},
	} {
		if g := structCodecGate(aggregate(parseBench("bench-codec.txt", c.text))); g.Pass != c.pass {
			t.Errorf("%s: gate %+v, want pass=%v", c.name, g, c.pass)
		}
	}
}
