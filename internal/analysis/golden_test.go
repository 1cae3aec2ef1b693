package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// sharedLoader amortizes the importer's dependency cache (net, gob, time,
// ... each read from its export data once) across every test in the package.
var (
	loaderOnce   sync.Once
	sharedLoader *analysis.Loader
)

func loader() *analysis.Loader {
	loaderOnce.Do(func() { sharedLoader = analysis.NewLoader() })
	return sharedLoader
}

// wantRE matches golden annotations: // want `regex` or // want "regex".
var wantRE = regexp.MustCompile("// want (?:`([^`]*)`|\"([^\"]*)\")")

type wantAnnotation struct {
	file string
	line int
	rx   *regexp.Regexp
	hit  bool
}

// collectWants scans fixture sources for // want annotations.
func collectWants(t *testing.T, dir string) []*wantAnnotation {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []*wantAnnotation
	for _, name := range matches {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				expr := m[1]
				if expr == "" {
					expr = m[2]
				}
				rx, err := regexp.Compile(expr)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, expr, err)
				}
				wants = append(wants, &wantAnnotation{file: name, line: i + 1, rx: rx})
			}
		}
	}
	return wants
}

// runGolden loads the fixture package for the analyzer and checks its
// findings against the fixture's // want annotations, both ways: every want
// must be hit, and every finding must be wanted.
func runGolden(t *testing.T, a *analysis.Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", a.Name))
	if err != nil {
		t.Fatal(err)
	}
	lp, err := loader().LoadDir(dir, "fixture/"+a.Name)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want annotations", dir)
	}
	findings := analysis.RunAnalyzer(a, lp)
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.rx.MatchString(f.Message) {
				w.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.rx)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}
}

func TestSimDeterminismGolden(t *testing.T) { runGolden(t, analysis.SimDeterminism) }
func TestLockedIOGolden(t *testing.T)       { runGolden(t, analysis.LockedIO) }
func TestDeadlineIOGolden(t *testing.T)     { runGolden(t, analysis.DeadlineIO) }
func TestMPIErrGolden(t *testing.T)         { runGolden(t, analysis.MPIErr) }
func TestObsDisciplineGolden(t *testing.T)  { runGolden(t, analysis.ObsDiscipline) }

func TestClockDisciplineGolden(t *testing.T) { runGolden(t, analysis.ClockDiscipline) }

// TestAnalyzerScoping pins each analyzer's Applies scope: the deterministic
// and deadline rules are package-targeted, the lock and error rules are
// global.
func TestAnalyzerScoping(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		pkg      string
		want     bool
	}{
		{analysis.SimDeterminism, "repro/internal/simkern", true},
		{analysis.SimDeterminism, "repro/internal/report", true},
		{analysis.SimDeterminism, "repro/internal/mpi", false},
		{analysis.SimDeterminism, "repro/cmd/swapexp", false},
		{analysis.DeadlineIO, "repro/internal/mpi", true},
		{analysis.DeadlineIO, "repro/internal/swaprt", true},
		{analysis.DeadlineIO, "repro/internal/simkern", false},
		// The chaos layer does no socket I/O of its own; it must not
		// inherit the mpi package's deadline obligations by prefix.
		{analysis.DeadlineIO, "repro/internal/mpi/fault", false},
		{analysis.LockedIO, "repro/internal/anything", true},
		{analysis.MPIErr, "repro/cmd/swaprun", true},
		{analysis.ObsDiscipline, "repro/internal/mpi", true},
		{analysis.ObsDiscipline, "repro/internal/swaprt", true},
		{analysis.ObsDiscipline, "repro/internal/simkern", true},
		{analysis.ObsDiscipline, "repro/internal/obs/series", true},
		// The flight recorder sits on the tracer's emit hot path and
		// dumps during crash handling; stray prints there would
		// interleave with the output being rescued.
		{analysis.ObsDiscipline, "repro/internal/obs/flight", true},
		// monclient (and any future swapmon subpackage) must render onto
		// caller-supplied writers; the swapmon main package is the UI.
		{analysis.ObsDiscipline, "repro/cmd/swapmon/monclient", true},
		{analysis.ObsDiscipline, "repro/cmd/swapmon", false},
		// The policy lens emits typed events from the decide hot path;
		// direct prints there would corrupt every embedding command.
		{analysis.ObsDiscipline, "repro/internal/swaprt/policylens", true},
		{analysis.ObsDiscipline, "repro/internal/obs", false},
		{analysis.ObsDiscipline, "repro/cmd/swaprun", false},
		{analysis.ClockDiscipline, "repro/internal/swaprt", true},
		// Lens payback timing must ride the injected clock or audits
		// diverge between wall-time and accelerated/simulated runs.
		{analysis.ClockDiscipline, "repro/internal/swaprt/policylens", true},
		{analysis.ClockDiscipline, "repro/internal/mpi", true},
		{analysis.ClockDiscipline, "repro/internal/mpi/fault", true},
		{analysis.ClockDiscipline, "repro/internal/obs", true},
		{analysis.ClockDiscipline, "repro/internal/obs/series", true},
		// Flight-dump markers must be stamped on the injected timeline or
		// post-mortem merges misorder them against virtual-time events.
		{analysis.ClockDiscipline, "repro/internal/obs/flight", true},
		{analysis.ClockDiscipline, "repro/internal/core", true},
		{analysis.ClockDiscipline, "repro/internal/strategy", true},
		// internal/clock is the sanctioned wrapper around package time;
		// commands own their top-level clock choice (-accel wiring).
		{analysis.ClockDiscipline, "repro/internal/clock", false},
		{analysis.ClockDiscipline, "repro/cmd/swaprun", false},
	}
	for _, c := range cases {
		if got := c.analyzer.Applies(c.pkg); got != c.want {
			t.Errorf("%s.Applies(%q) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
}

// TestByName resolves analyzer subsets for swapvet's -run flag.
func TestByName(t *testing.T) {
	if got := len(analysis.ByName("")); got != 6 {
		t.Fatalf("ByName(\"\") returned %d analyzers, want 6", got)
	}
	sub := analysis.ByName("lockedio,mpierr")
	if len(sub) != 2 || sub[0].Name != "lockedio" || sub[1].Name != "mpierr" {
		names := make([]string, len(sub))
		for i, a := range sub {
			names[i] = a.Name
		}
		t.Fatalf("ByName(lockedio,mpierr) = %v", names)
	}
	if got := analysis.ByName("nosuch"); len(got) != 0 {
		t.Fatalf("ByName(nosuch) returned %d analyzers, want 0", len(got))
	}
}

func ExampleFinding() {
	f := analysis.Finding{Analyzer: "lockedio", Message: "sends on a channel while a mutex is held"}
	f.Pos.Filename, f.Pos.Line, f.Pos.Column = "tcp.go", 42, 7
	fmt.Println(f)
	// Output: tcp.go:42:7: lockedio: sends on a channel while a mutex is held
}
