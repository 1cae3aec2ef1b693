package loadgen_test

import (
	"bytes"
	"fmt"

	"repro/internal/loadgen"
	"repro/internal/rng"
)

// A recorded load trace replays exactly: one host's ON/OFF load is
// written as a change-point CSV, parsed back, and replayed through the
// same Model interface, and every probe reads the load the model
// produced. Replayed traces make technique comparisons repeatable: each
// technique sees byte-identical load.
func ExampleReplay() {
	const horizon = 4 * 3600
	model := loadgen.NewOnOff(0.25)
	recorded := loadgen.NewTrace(model.NewSource(rng.NewSource(101), 0))

	starts, vals := recorded.Segments(horizon)
	var segs []loadgen.Segment
	for i := 0; i+1 < len(starts); i++ {
		segs = append(segs, loadgen.Segment{Dur: starts[i+1] - starts[i], N: vals[i]})
	}
	var csv bytes.Buffer
	if err := loadgen.WriteTraceCSV(&csv, segs, vals[len(vals)-1]); err != nil {
		fmt.Println(err)
		return
	}

	segs, tail, err := loadgen.ParseTraceCSV(&csv)
	if err != nil {
		fmt.Println(err)
		return
	}
	replay := loadgen.Replay{Segments: segs, Tail: tail}
	replayed := loadgen.NewTrace(replay.NewSource(rng.NewSource(0), 0))
	probes, diverged := 0, 0
	for t := 0.0; t < horizon; t += 97 {
		probes++
		if replayed.ValueAt(t) != recorded.ValueAt(t) {
			diverged++
		}
	}
	fmt.Printf("%d change points over %d s; %d probes, %d diverged\n", len(segs), horizon, probes, diverged)
	// Output:
	// 54 change points over 14400 s; 149 probes, 0 diverged
}
