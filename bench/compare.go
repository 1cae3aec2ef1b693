package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// A set is the results of several invocations of one build. Comparing
// two sets gives, per workload × end-to-end metric, both medians, their
// gap, each set's spread (IQR/median, as the acceptance driver computes
// it) and a verdict against the metric's bound.

// storedResult is what compare reads back from a -out file.
type storedResult struct {
	Workloads map[string]struct {
		Metrics map[string]metricValue `json:"metrics"`
	} `json:"workloads"`
}

// readSet loads a file holding one result object or an array of them.
func readSet(path string) ([]storedResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	data = bytes.TrimSpace(data)
	var set []storedResult
	if len(data) > 0 && data[0] == '[' {
		err = json.Unmarshal(data, &set)
	} else {
		var one storedResult
		if err = json.Unmarshal(data, &one); err == nil {
			set = []storedResult{one}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return set, nil
}

func compareFiles(w io.Writer, paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare takes two result files")
	}
	a, err := readSet(paths[0])
	if err != nil {
		return err
	}
	b, err := readSet(paths[1])
	if err != nil {
		return err
	}
	compareSets(w, a, b, false)
	return nil
}

// verdict classifies B against A for one metric.
//
//	unresolved  a set's spread is wider than the bound: nothing can be said
//	regressed   B's median is worse than A's by more than the bound
//	improved    B's median is better than A's by more than the bound
//	unchanged   otherwise
func verdict(d metricDef, medA, medB, spreadA, spreadB float64) (gap float64, v string) {
	gap = (medB - medA) / medA
	worse := gap
	if d.better == "higher" {
		worse = -gap
	}
	wide := math.Max(spreadA, spreadB)
	switch {
	case !math.IsNaN(wide) && wide > d.bound:
		v = "unresolved"
	case worse > d.bound:
		v = "regressed"
	case -worse > d.bound:
		v = "improved"
	default:
		v = "unchanged"
	}
	return gap, v
}

// compareSets prints the table and reports whether every row passed
// (A/A mode: unchanged is PASS, anything else FAIL).
func compareSets(w io.Writer, a, b []storedResult, aa bool) bool {
	collect := func(set []storedResult, workload, metric string) []float64 {
		var xs []float64
		for _, r := range set {
			if wr, ok := r.Workloads[workload]; ok {
				if m, ok := wr.Metrics[metric]; ok {
					xs = append(xs, m.Value)
				}
			}
		}
		return xs
	}
	ok := true
	fmt.Fprintf(w, "| workload | metric | median A | median B | gap %% | spread A %% | spread B %% | bound %% | verdict |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for i := range workloads {
		name := workloads[i].name
		for _, d := range printed {
			xa, xb := collect(a, name, d.name), collect(b, name, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			medA, medB := median(xa), median(xb)
			if medA == 0 && medB == 0 {
				continue // exact zeros (fail_share, transport counts on sim-figures)
			}
			sa, sb := spread(xa), spread(xb)
			gap, v := verdict(d, medA, medB, sa, sb)
			if aa {
				if v == "unchanged" {
					v = "PASS"
				} else {
					v, ok = "FAIL ("+v+")", false
				}
			} else if v == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "| %s | %s | %.4f | %.4f | %+.2f | %.2f | %.2f | %.0f | %s |\n",
				name, d.name, medA, medB, 100*gap, 100*sa, 100*sb, 100*d.bound, v)
		}
	}
	return ok
}

// runAA runs two sets of o.aa invocations of this same binary,
// interleaved A1 B1 A2 B2 …, each pair on its own seed, and prints the
// comparison. Both sets are kept under bench/out/.
func runAA(w io.Writer, o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(diskRoot(), "swapbench-aa-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var sets [2][]storedResult
	var raw [2][]json.RawMessage
	for i := 0; i < o.aa; i++ {
		for s := range sets {
			out := filepath.Join(dir, fmt.Sprintf("%c%d.json", 'A'+s, i))
			cmd := exec.Command(exe, "-workload", o.workload, "-seed", fmt.Sprint(o.seed+int64(i)),
				"-seconds", fmt.Sprint(o.seconds), "-out", out)
			if o.smoke {
				cmd.Args = append(cmd.Args, "-smoke")
			}
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("invocation %c%d: %w", 'A'+s, i+1, err)
			}
			one, err := readSet(out)
			if err != nil {
				return err
			}
			data, err := os.ReadFile(out)
			if err != nil {
				return err
			}
			sets[s] = append(sets[s], one...)
			raw[s] = append(raw[s], data)
			fmt.Fprintf(os.Stderr, "swapbench: A/A invocation %c%d done\n", 'A'+s, i+1)
		}
	}
	for s := range raw {
		if err := writeJSON(filepath.Join(outDir(), fmt.Sprintf("aa-%c.json", 'A'+s)), raw[s]); err != nil {
			return err
		}
	}
	if !compareSets(w, sets[0], sets[1], true) {
		return fmt.Errorf("A/A self-check failed: two sets of the same code disagree")
	}
	return nil
}
