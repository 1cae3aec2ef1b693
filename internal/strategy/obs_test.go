package strategy

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/simkern"
	"repro/internal/swaprt/policylens"
)

// tracedSwapRun executes one Swap run with a tracer attached to the
// kernel and a lens tracing to it, and returns the result plus the
// merged event stream.
func tracedSwapRun(seed int64) (Result, []obs.Event) {
	p := testPlatform(8, loadgen.NewOnOff(0.3), seed)
	tr := obs.New(4, obs.WithClock(p.Kernel.Now))
	tr.Enable()
	p.Kernel.SetTracer(tr)
	res := Swap{}.Run(p, Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy(),
		Lens: policylens.New(policylens.Config{Tracer: tr})})
	return res, tr.Events()
}

// TestSimTraceSwap asserts a simulated Swap run emits the same event
// taxonomy as a live run — iteration brackets per rank, SwapDecision
// events carrying the payback algebra, StateTransfer legs — all stamped
// with virtual timestamps inside the run's makespan.
func TestSimTraceSwap(t *testing.T) {
	res, events := tracedSwapRun(63)
	if res.Swaps == 0 {
		t.Skip("no swaps at this seed")
	}

	var iterStarts, iterEnds, decisions, transfers int
	var swapVerdict *obs.Event
	for _, ev := range events {
		ev := ev
		if ev.T < 0 || ev.T > res.TotalTime || ev.T+ev.Dur > res.TotalTime+1e-9 {
			t.Fatalf("event outside virtual run window [0,%g]: %+v", res.TotalTime, ev)
		}
		switch ev.Kind {
		case obs.KindIterStart:
			iterStarts++
		case obs.KindIterEnd:
			iterEnds++
		case obs.KindSwapDecision:
			decisions++
			if ev.Rank != obs.RankRuntime {
				t.Fatalf("sim decision on rank %d, want runtime track", ev.Rank)
			}
			if ev.Verdict == "swap" && swapVerdict == nil {
				swapVerdict = &ev
			}
		case obs.KindStateTransfer:
			transfers++
			if ev.Detail != "out" {
				t.Fatalf("swap transfer detail %q, want out", ev.Detail)
			}
			if ev.Bytes != 50e6 {
				t.Fatalf("transfer bytes %d, want 50e6", ev.Bytes)
			}
		}
	}
	wantIters := len(res.Iters) * 4
	if iterStarts != wantIters || iterEnds != wantIters {
		t.Fatalf("iteration brackets %d/%d, want %d each", iterStarts, iterEnds, wantIters)
	}
	// One decision per boundary (every iteration except the last).
	if decisions != len(res.Iters)-1 {
		t.Fatalf("decisions = %d, want %d", decisions, len(res.Iters)-1)
	}
	if transfers != res.Swaps {
		t.Fatalf("transfer events = %d, Result.Swaps = %d", transfers, res.Swaps)
	}
	if swapVerdict == nil {
		t.Fatal("no SwapDecision with verdict swap despite res.Swaps > 0")
	}
	if swapVerdict.Payback <= 0 || swapVerdict.Reason == "" ||
		swapVerdict.OldPerf <= 0 || swapVerdict.NewPerf <= swapVerdict.OldPerf {
		t.Fatalf("swap decision algebra incomplete: %+v", swapVerdict)
	}

	// The virtual-time event stream must export to the same Chrome trace
	// format as live runs.
	p2 := testPlatform(8, loadgen.NewOnOff(0.3), 63)
	tr2 := obs.New(4, obs.WithClock(p2.Kernel.Now))
	tr2.Enable()
	p2.Kernel.SetTracer(tr2)
	Swap{}.Run(p2, Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy()})
	var buf bytes.Buffer
	if err := tr2.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	entries, err := obs.ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// And pass the same trace checks: one clock, epochs monotone,
	// decisions carrying their payback algebra.
	if c := obs.CheckTrace(entries); !c.Ok() || c.Complete == 0 {
		t.Fatalf("sim trace check: %d of %d decisions complete, violations %v", c.Complete, c.Decisions, c.Violations)
	}
}

// TestSimTraceDeterministic pins that tracing does not perturb the
// simulation and that two identical runs emit identical event streams
// (virtual timestamps and all).
func TestSimTraceDeterministic(t *testing.T) {
	res1, ev1 := tracedSwapRun(99)
	res2, ev2 := tracedSwapRun(99)
	if res1.TotalTime != res2.TotalTime || res1.Swaps != res2.Swaps {
		t.Fatalf("traced runs diverged: %g/%d vs %g/%d",
			res1.TotalTime, res1.Swaps, res2.TotalTime, res2.Swaps)
	}
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event streams differ: %d vs %d events", len(ev1), len(ev2))
	}
	// Tracing must not change the simulation outcome at all.
	plain := Swap{}.Run(testPlatform(8, loadgen.NewOnOff(0.3), 99),
		Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy()})
	tr := obs.New(4)
	tr.Enable()
	p := testPlatform(8, loadgen.NewOnOff(0.3), 99)
	p.Kernel.SetTracer(tr)
	traced := Swap{}.Run(p, Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy()})
	if plain.TotalTime != traced.TotalTime || plain.Swaps != traced.Swaps {
		t.Fatalf("tracing perturbed the run: %g/%d vs %g/%d",
			plain.TotalTime, plain.Swaps, traced.TotalTime, traced.Swaps)
	}
}

// TestSimTraceCR asserts CR relocations emit a runtime-track decision
// labelled "relocation" plus checkpoint write/read transfer legs.
func TestSimTraceCR(t *testing.T) {
	seed := int64(23)
	k0 := simkern.New()
	p0 := platform.New(k0, platform.Default(3, nil), rng.NewSource(seed))
	victim := p0.FastestAt(0, 1, nil)[0]

	k := simkern.New()
	p := platform.New(k, platform.Default(3, loadedFirstHost{victim: victim}), rng.NewSource(seed))
	tr := obs.New(1, obs.WithClock(k.Now))
	tr.Enable()
	k.SetTracer(tr)
	a := app.Iterative{Iterations: 10, WorkPerProcIter: 60 * 500e6, BytesPerIter: 1e3, StateBytes: 1e6}
	res := CR{}.Run(p, Scenario{Active: 1, App: a, Policy: core.Greedy()})
	if res.Swaps == 0 {
		t.Fatal("cr never relocated")
	}

	var relocations, writes, reads int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindSwapDecision:
			if ev.Detail != "relocation" {
				t.Fatalf("cr decision detail %q, want relocation", ev.Detail)
			}
			if ev.Verdict == "swap" {
				if ev.Payback <= 0 || ev.SwapTime <= 0 {
					t.Fatalf("relocation algebra incomplete: %+v", ev)
				}
				relocations++
			}
		case obs.KindStateTransfer:
			switch ev.Detail {
			case "checkpoint write":
				writes++
			case "checkpoint read":
				reads++
			default:
				t.Fatalf("cr transfer detail %q", ev.Detail)
			}
			if ev.Bytes != 1e6 || ev.Dur <= 0 {
				t.Fatalf("checkpoint leg malformed: %+v", ev)
			}
		}
	}
	if relocations != res.Swaps {
		t.Fatalf("relocation verdicts = %d, Result.Swaps = %d", relocations, res.Swaps)
	}
	if writes != res.Swaps || reads != res.Swaps {
		t.Fatalf("checkpoint legs write=%d read=%d, want %d each", writes, reads, res.Swaps)
	}
}

// TestCRAnalysesToPaidRelocations: a traced CR run's relocations each
// state a swap record, so the analysis prices every one of them — the
// overhead its decision predicted, the checkpoint write, restart and read
// it paid, and both 200 MB checkpoint legs — instead of the zeros a
// relocation, which orders no directive, used to read.
func TestCRAnalysesToPaidRelocations(t *testing.T) {
	p := testPlatform(8, loadgen.NewOnOff(0.3), 63)
	tr := obs.New(4, obs.WithClock(p.Kernel.Now))
	tr.Enable()
	p.Kernel.SetTracer(tr)
	res := CR{}.Run(p, Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy()})
	if res.Swaps != 5 {
		t.Fatalf("seed 63 relocates %d times, want 5", res.Swaps)
	}
	var rep strings.Builder
	if err := obs.Analyze(tr.Events()).WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, line := range strings.Split(rep.String(), "\n") {
		if strings.HasPrefix(line, "t=") {
			lines = append(lines, line)
		}
	}
	if len(lines) != res.Swaps {
		t.Fatalf("%d attributed relocations, want %d:\n%s", len(lines), res.Swaps, rep.String())
	}
	for _, line := range lines {
		var at, payback, predicted, paid, actual float64
		var directives int
		var bytes int64
		if _, err := fmt.Sscanf(line, "t=%g directives=%d payback=%g predicted=%gs paid=%gs actual=%gs bytes=%d",
			&at, &directives, &payback, &predicted, &paid, &actual, &bytes); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if predicted <= 0 || paid <= 0 || actual <= 0 || actual >= paid || bytes != 400e6 {
			t.Errorf("%q: want a predicted and a paid time, checkpoint legs inside the paid time, 400 MB", line)
		}
	}
}

// TestSimTraceCausal pins the simulated causal emission: with Lamport
// clocks armed on the kernel, each iteration barrier traces as matched
// MsgSend/MsgRecv edges — same format as a live -causal world, on
// virtual timestamps — passing every causality validation, feeding the
// message-edge critical path, and staying fully deterministic. Without
// armed clocks the trace is unchanged (pinned by TestAnalyzeGolden).
func TestSimTraceCausal(t *testing.T) {
	causalRun := func() (Result, []obs.Event) {
		p := testPlatform(8, loadgen.NewOnOff(0.3), 63)
		tr := obs.New(4, obs.WithClock(p.Kernel.Now))
		tr.Enable()
		p.Kernel.SetTracer(tr)
		p.Kernel.SetCausal(obs.NewCausal(4))
		res := Swap{}.Run(p, Scenario{Active: 4, App: app.Default(8).WithState(50e6), Policy: core.Greedy()})
		return res, tr.Events()
	}
	res, events := causalRun()

	var sends, recvs int
	for _, ev := range events {
		switch ev.Kind {
		case obs.KindMsgSend:
			sends++
		case obs.KindMsgRecv:
			recvs++
		}
		if ev.Kind == obs.KindMsgSend || ev.Kind == obs.KindMsgRecv {
			if ev.T < 0 || ev.T > res.TotalTime+1e-9 {
				t.Fatalf("causal event outside run window [0,%g]: %+v", res.TotalTime, ev)
			}
			if ev.LC == 0 {
				t.Fatalf("causal event without Lamport clock: %+v", ev)
			}
		}
	}
	// 3 non-root ranks x 2 directions per iteration barrier.
	want := len(res.Iters) * 3 * 2
	if sends != want || recvs != want {
		t.Fatalf("causal edges %d/%d, want %d each", sends, recvs, want)
	}

	check := obs.CheckCausality(events)
	if !check.Ok() {
		t.Fatalf("sim causal trace has violations: %v", check.Violations)
	}
	if check.Matched != check.Recvs {
		t.Fatalf("matched %d of %d recvs", check.Matched, check.Recvs)
	}

	an := obs.Analyze(events)
	if _, ok := an.Causality(); !ok {
		t.Fatal("analysis did not pick up the causal evidence")
	}

	// Determinism: a second armed run emits an identical stream.
	res2, events2 := causalRun()
	if res.TotalTime != res2.TotalTime || !reflect.DeepEqual(events, events2) {
		t.Fatal("causal sim runs diverged")
	}

	// Arming the clocks must not perturb the simulation outcome.
	plain, _ := tracedSwapRun(63)
	if plain.TotalTime != res.TotalTime || plain.Swaps != res.Swaps {
		t.Fatalf("causal emission perturbed the run: %g/%d vs %g/%d",
			plain.TotalTime, plain.Swaps, res.TotalTime, res.Swaps)
	}
}

// A run decides through the text-free path when no tracer listens and
// through the explained one when one does; the Result — iterations,
// swap events, final hosts, the lens report with its shadow scoreboard —
// must not be able to tell.
func TestTracerDoesNotChangeTheRun(t *testing.T) {
	for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		sc := Scenario{Active: 4, App: app.Default(12).WithState(50e6), Policy: pol}
		sc.Lens = policylens.New(policylens.Config{})
		quiet := Swap{}.Run(testPlatform(8, loadgen.NewOnOff(0.3), 63), sc)

		p := testPlatform(8, loadgen.NewOnOff(0.3), 63)
		tr := obs.New(4, obs.WithClock(p.Kernel.Now))
		tr.Enable()
		p.Kernel.SetTracer(tr)
		sc.Lens = policylens.New(policylens.Config{Tracer: tr})
		traced := Swap{}.Run(p, sc)

		if quiet.Lens == nil || quiet.Lens.Realized == 0 {
			t.Fatalf("%s: no swap was audited to realization: %+v", pol.Name, quiet.Lens)
		}
		if !reflect.DeepEqual(quiet, traced) {
			t.Errorf("%s: a tracer changed the run:\nquiet  %+v\ntraced %+v", pol.Name, quiet, traced)
		}
	}
}

// A run audits only when handed a lens, and auditing is read-only: with
// and without one, a Swap run's Result is the same apart from Lens, which
// only the audited run fills — a tracer alone implies no lens.
func TestLensDoesNotChangeTheRun(t *testing.T) {
	for _, pol := range []core.Policy{core.Greedy(), core.Safe(), core.Friendly()} {
		sc := Scenario{Active: 4, App: app.Default(12).WithState(50e6), Policy: pol}
		p := testPlatform(8, loadgen.NewOnOff(0.3), 63)
		tr := obs.New(4, obs.WithClock(p.Kernel.Now))
		tr.Enable()
		p.Kernel.SetTracer(tr)
		plain := Swap{}.Run(p, sc)

		sc.Lens = policylens.New(policylens.Config{})
		audited := Swap{}.Run(testPlatform(8, loadgen.NewOnOff(0.3), 63), sc)

		if plain.Lens != nil {
			t.Fatalf("%s: a run without a lens reported %+v", pol.Name, plain.Lens)
		}
		for _, ev := range tr.Events() {
			if ev.Kind == obs.KindShadowDecision || ev.Kind == obs.KindPaybackRealized {
				t.Fatalf("%s: a run without a lens traced %+v", pol.Name, ev)
			}
		}
		if audited.Lens == nil || audited.Lens.Decisions == 0 {
			t.Fatalf("%s: the lens saw no decision: %+v", pol.Name, audited.Lens)
		}
		if audited.Swaps == 0 {
			t.Fatalf("%s: no swap, so the lens audited only stays", pol.Name)
		}
		audited.Lens = nil
		if !reflect.DeepEqual(plain, audited) {
			t.Errorf("%s: a lens changed the run:\nplain   %+v\naudited %+v", pol.Name, plain, audited)
		}
	}
}
