package main

import (
	"bytes"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
	"unicode"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
)

// TestRunRejectsBadFlags: each command line here used to panic, hang,
// fail deep inside the decider, or run a meaningless schedule. run must
// refuse it up front with an error that names the flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-ranks 2 -active 3", "-active"},
		{"-active 0", "-active"},
		{"-state -1", "-state"},
		{"-iters 0", "-iters"},
		{"-work NaN", "-work"},
		{"-accel NaN", "-accel"},
		{"-accel +Inf", "-accel"},
		{"-accel 10", "-accel"}, // an in-process run is on virtual time
		{"-inject 0@0:NaN", "-inject"},
		{"-inject 0@0:+Inf", "-inject"},
		{"-inject 0@NaN:2", "-inject"},
		{"-inject 0@-1:2", "-inject"},
		{"-inject 0@+Inf:2", "-inject"},
		{"-inject 0@0:2.5", "-inject"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(strings.Fields(tc.args), &stdout, &stderr)
			if err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ") {
				t.Fatalf("run(%s) = %v, want an error naming %s", tc.args, err, tc.flag)
			}
		})
	}
}

// TestSweepRefusesOneRunOutputs: a sweep's scenarios would overwrite one
// another's trace, dumps, store and port.
func TestSweepRefusesOneRunOutputs(t *testing.T) {
	for _, flag := range []string{"-trace-out x", "-events-out x", "-metrics-out x",
		"-flight-dir x", "-debug-addr 127.0.0.1:0", "-mgr-store x"} {
		var stdout, stderr bytes.Buffer
		err := run(strings.Fields("-scenarios 2 "+flag), &stdout, &stderr)
		if name := strings.Fields(flag)[0]; err == nil || !strings.HasPrefix(err.Error(), name+" ") {
			t.Errorf("run(-scenarios 2 %s) = %v, want an error naming %s", flag, err, name)
		}
	}
}

// TestRotate pins a sweep's schedule: scenario i moves an injection on
// active rank r to (r+i) mod active, (7i mod iters/2) iterations of work
// later, and leaves one aimed at a spare alone.
func TestRotate(t *testing.T) {
	o := options{active: 2, iters: 30, work: 20, injections: []injection{
		{Rank: 1, Delay: 300 * time.Millisecond, Factor: 8},
		{Rank: 3, Delay: 0, Factor: 4},
	}}
	if got := o.rotate(0); !reflect.DeepEqual(got, o.injections) {
		t.Errorf("scenario 0 = %+v, want the schedule as given", got)
	}
	// 7*3 mod 15 = 6 iterations of 20 ms.
	want := []injection{{Rank: 0, Delay: 420 * time.Millisecond, Factor: 8}, {Rank: 3, Factor: 4}}
	if got := o.rotate(3); !reflect.DeepEqual(got, want) {
		t.Errorf("scenario 3 = %+v, want %+v", got, want)
	}
	if o.injections[0].Rank != 1 {
		t.Error("rotate changed the parsed schedule")
	}
}

// TestInjectIsAReplay: -inject is a per-host replay of competing-process
// levels. Injections on one host become its sorted change points, each
// one's level holding until the next; a factor f is f-1 competing
// processes; a host without injections stays unloaded.
func TestInjectIsAReplay(t *testing.T) {
	o, err := parse(strings.Fields("-ranks 4 -active 2 -inject 0@0.05:8,1@0:4,0@1:2"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	env := platform.NewEnvironment(platform.Config{NumHosts: 4, SpeedMin: hostSpeed, SpeedMax: hostSpeed,
		LoadModel: o.hostLoad(0)}, rng.NewSource(0))
	for _, tc := range []struct {
		host  int
		t     float64
		level int
	}{
		{0, 0, 0}, {0, 0.049, 0}, {0, 0.05, 7}, {0, 0.5, 7}, {0, 0.999, 7}, {0, 1, 1}, {0, 1e4, 1},
		{1, 0, 3}, {1, 0.05, 3}, {1, 1e4, 3},
		{2, 0, 0}, {2, 0.05, 0}, {2, 1, 0}, {3, 0, 0}, {3, 1e4, 0},
	} {
		if got := env.Hosts()[tc.host].LoadAt(tc.t); got != tc.level {
			t.Errorf("host %d at %gs: level %d, want %d", tc.host, tc.t, got, tc.level)
		}
	}
}

// TestLiveHostsAreSimulatedHosts: a live run's hosts are the simulator's.
// Under an ON/OFF model every handler probe of a live run reads the rate
// hostSpeed/(1+level) a simulated environment, built on its own from the
// same config and seed, gives that host at the probe's time. Probes
// within one handler interval of a change point are skipped: a probe's
// stamp and its read of the host are a moment apart.
func TestLiveHostsAreSimulatedHosts(t *testing.T) {
	events := filepath.Join(t.TempDir(), "run.jsonl")
	o, err := parse([]string{"-ranks", "4", "-active", "2", "-iters", "60", "-work", "20", "-inject", "",
		"-handler", "40ms", "-events-out", events}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// The handler interval is under half the step, so the window around
	// a probe holds one change point at most.
	o.load = loadgen.OnOff{P: 0.5, Q: 0.5, Step: 0.1}
	if _, _, err := o.scenario(0, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
	env := platform.NewEnvironment(platform.Config{NumHosts: 4, SpeedMin: 1000, SpeedMax: 1000,
		LoadModel: o.load}, rng.NewSource(0))
	handler := o.handler.Seconds()
	checked, loaded := 0, 0
	for _, ev := range readEvents(t, events) {
		if ev.Kind != obs.KindHandlerProbe {
			continue
		}
		h := env.Hosts()[ev.Rank]
		level := h.LoadAt(ev.T)
		if h.LoadAt(ev.T-handler) != level || h.LoadAt(ev.T+handler) != level {
			continue
		}
		checked++
		if level > 0 {
			loaded++
		}
		if want := 1000 / (1 + float64(level)); math.Abs(ev.Value-want) > 1e-9*want {
			t.Errorf("rank %d probed %g at %.4fs; its simulated host is at level %d, rate %g",
				ev.Rank, ev.Value, ev.T, level, want)
		}
	}
	if checked < 20 || loaded == 0 || loaded == checked {
		t.Errorf("%d probes checked, %d of them on a loaded host: want at least 20, both levels seen", checked, loaded)
	}
}

// TestVirtualRunIsExact: an in-process run is on virtual time. An
// unloaded iteration takes exactly its -work, so the anomaly detector
// finds nothing to flag, a scenario's trace is a function of the
// scenario (two runs of one write the same bytes), and a swap round pays
// exactly its predicted link time, all of it in the transfer phase.
func TestVirtualRunIsExact(t *testing.T) {
	dir := t.TempDir()
	trace := func(name, args string) string {
		path := filepath.Join(dir, name)
		if err := run(append(strings.Fields(args), "-events-out", path), io.Discard, io.Discard); err != nil {
			t.Fatalf("swaprun %s: %v", args, err)
		}
		return path
	}
	evs := readEvents(t, trace("unloaded.jsonl", "-ranks 2 -active 1 -iters 100 -work 5 -inject="))
	iters := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindIterEnd {
			if iters++; ev.Value != 0.005 {
				t.Errorf("iteration ending at %gs took %gs, want exactly 0.005", ev.T, ev.Value)
			}
		}
	}
	if iters != 100 {
		t.Errorf("%d IterEnd events, want 100", iters)
	}
	if wins := obs.Analyze(evs).AnomalyWindows(); len(wins) != 0 {
		t.Errorf("%d anomaly windows in an unloaded run: %+v", len(wins), wins)
	}

	const swapped = "-ranks 4 -active 2 -iters 30 -work 20 -inject 0@0.14:10 -lens"
	first, err := os.ReadFile(trace("first.jsonl", swapped))
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(trace("second.jsonl", swapped))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("two runs of swaprun %s wrote different traces (%d and %d bytes)", swapped, len(first), len(second))
	}

	// The leader is not an outgoing rank here: what a round paid is the
	// link time its outgoing rank voted, and the leader's wait holds
	// nothing else.
	committed := 0
	for _, ev := range readEvents(t, trace("3+3.jsonl", "-ranks 6 -active 3 -inject 1@0.2:8,2@0.5:10")) {
		if ev.Kind != obs.KindSwapRecord || ev.Verdict != obs.VerdictCommit {
			continue
		}
		committed++
		if p := ev.Round.Phases; p.Transfer != ev.SwapTime || p.Vote != 0 {
			t.Errorf("epoch %d predicted %gs and paid transfer=%g vote=%g, want transfer=%g vote=0",
				ev.Epoch, ev.SwapTime, p.Transfer, p.Vote, ev.SwapTime)
		}
	}
	if committed == 0 {
		t.Error("the 3+3 run committed no swap")
	}
}

// TestDocumentedCommandLines: every swaprun command line in the docs
// parses, so a doc line that uses a deleted flag or a value swaprun
// refuses fails here.
func TestDocumentedCommandLines(t *testing.T) {
	n := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../.claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, args := range swaprunCommands(string(b)) {
			n++
			if _, err := parse(args, io.Discard); err != nil {
				t.Errorf("%s: swaprun %s: %v", filepath.Base(doc), strings.Join(args, " "), err)
			}
		}
	}
	if n < 15 {
		t.Errorf("found %d swaprun command lines in the docs, want at least 15", n)
	}
}

var (
	continued  = regexp.MustCompile(`\\\n\s*`)
	invocation = regexp.MustCompile(`(?:go run \./cmd/|(?:^|[\s(]))swaprun(?:\s|$)`)
)

// swaprunCommands returns the arguments of every swaprun command line in
// a markdown document: after swaprun or go run ./cmd/swaprun, in a fenced
// block or a code span, with \-continued lines joined.
func swaprunCommands(doc string) [][]string {
	var code []string
	var prose strings.Builder
	fenced := false
	for _, line := range strings.Split(continued.ReplaceAllString(doc, " "), "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			prose.WriteString(line + "\n")
		}
	}
	spans := strings.Split(prose.String(), "`")
	for i := 1; i < len(spans); i += 2 {
		code = append(code, strings.ReplaceAll(spans[i], "\n", " "))
	}
	var out [][]string
	for _, c := range code {
		for _, m := range invocation.FindAllStringIndex(c, -1) {
			out = append(out, shellWords(c[m[1]:]))
		}
	}
	return out
}

// shellWords splits a shell command line into its words, undoing single
// and double quotes, up to the first unquoted |, &, ;, <, > or ), or a #
// that starts a word. The descriptor of a redirection (the 2 of 2>) is
// no word.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	in := false // inside a word
	var quote rune
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, in = r, true
		case unicode.IsSpace(r):
			if in {
				words, in = append(words, w.String()), false
				w.Reset()
			}
		case strings.ContainsRune("|&;<>)", r) || r == '#' && !in:
			if in && !(r == '>' && strings.Trim(w.String(), "0123456789") == "") {
				words = append(words, w.String())
			}
			return words
		default:
			w.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, w.String())
	}
	return words
}
