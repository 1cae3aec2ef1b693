// Package fixture seeds console-output violations for the obsdiscipline
// golden test: direct fmt/log printing and the println builtin, which
// the runtime packages must route through obs events or returned errors.
package fixture

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

// logf stands in for a caller-injected log sink, such as the flight
// recorder's.
var logf = func(format string, args ...any) {}

func directPrints(rank int) {
	fmt.Printf("rank %d probing\n", rank) // want `fmt\.Printf in a runtime package`
	fmt.Println("swap point reached")     // want `fmt\.Println in a runtime package`
	fmt.Print("barrier\n")                // want `fmt\.Print in a runtime package`
	log.Printf("rank %d: %v", rank, nil)  // want `log\.Printf in a runtime package`
	log.Println("handler started")        // want `log\.Println in a runtime package`
	println("debug", rank)                // want `builtin println in a runtime package`
	fmt.Fprintf(os.Stderr, "oops %d", 1)  // want `fmt\.Fprintf to a standard stream in a runtime package`
	fmt.Fprintln(os.Stdout, "iter done")  // want `fmt\.Fprintln to a standard stream in a runtime package`
}

func fatalExit() {
	log.Fatalf("cannot continue") // want `log\.Fatalf in a runtime package`
}

// allowed shows the sanctioned forms: formatting without printing,
// writing to an arbitrary (injected) writer, an injected log sink, and
// an error for the caller.
func allowed(rank int, sb *strings.Builder) string {
	s := fmt.Sprintf("rank %d", rank)
	fmt.Fprintf(sb, "into a builder: %s", s)
	logf("swaprt: rank %d ready", rank)
	err := fmt.Errorf("rank %d failed", rank)
	_ = err
	return s
}

// render mirrors swapmon's monclient shape: a dashboard renderer writes
// to a caller-supplied writer, never a standard stream — the UI decides
// where the text goes.
func render(w io.Writer, epoch uint64, quarantined []int) {
	fmt.Fprintf(w, "epoch=%d\n", epoch)
	for _, r := range quarantined {
		fmt.Fprintln(w, "quarantined:", r)
	}
}

// flightDump mirrors the flight recorder's dump path: it runs during
// crash handling, so failures must go to the injected logf — printing
// from here would interleave with the output being rescued.
func flightDump(reason string, err error) {
	if err != nil {
		logf("flight: dump %q: %v", reason, err)              // sanctioned: injected sink
		fmt.Printf("flight: dump %q failed: %v", reason, err) // want `fmt\.Printf in a runtime package`
		log.Printf("flight: dump %q failed", reason)          // want `log\.Printf in a runtime package`
	}
}
