package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes every buffered event as one JSON object per line, in
// the deterministic order of Events. This is the machine-diffable log
// format; the Chrome trace is the visual one.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteEventsJSONL(w, t.Events())
}

// WriteEventsJSONL writes an explicit event slice in the same
// one-object-per-line format as WriteJSONL, in the order given. The
// flight recorder uses it to dump ring snapshots that ReadJSONL (and so
// tracecheck -postmortem) parse back without a Tracer in the loop.
func WriteEventsJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range evs {
		// Encode via a shim so the kind renders as its name, not a number.
		if err := enc.Encode(jsonEvent{Event: ev, KindName: ev.Kind.String()}); err != nil {
			return fmt.Errorf("obs: write jsonl: %w", err)
		}
	}
	return bw.Flush()
}

// jsonEvent overrides the numeric Kind with its symbolic name.
type jsonEvent struct {
	Event
	KindName string `json:"kind"`
}

// traceEvent is one Chrome trace_event (the JSON array format that
// chrome://tracing and ui.perfetto.dev load directly). ph is the phase:
// "B"/"E" begin/end slices, "X" complete slices with dur, "i" instants,
// "M" metadata.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`    // instant scope: "t" = thread
	Args  map[string]any `json:"args,omitempty"` // payload
}

// WriteChromeTrace writes the buffered events as a Chrome trace_event
// JSON array — one track (tid) per rank plus a "runtime" track, iteration
// and transfer slices as durations, decisions and probes as instant
// events carrying their payload in args. Load the file at
// ui.perfetto.dev or chrome://tracing.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	runtimeTID := len(t.ranks) // the track for Rank < 0 events
	out := make([]traceEvent, 0, t.Len()+len(t.ranks)+1)

	// Thread-name metadata so Perfetto labels the tracks.
	for r := range t.ranks {
		out = append(out, traceEvent{
			Name: "thread_name", Phase: "M", PID: 0, TID: r,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", r)},
		})
	}
	out = append(out, traceEvent{
		Name: "thread_name", Phase: "M", PID: 0, TID: runtimeTID,
		Args: map[string]any{"name": "runtime"},
	})

	for _, ev := range t.Events() {
		tid := ev.Rank
		if tid < 0 || tid >= len(t.ranks) {
			tid = runtimeTID
		}
		args, err := eventArgs(ev)
		if err != nil {
			return fmt.Errorf("obs: write chrome trace: %w", err)
		}
		te := traceEvent{Name: ev.Kind.String(), TS: ev.T * 1e6, PID: 0, TID: tid, Args: args}
		switch ev.Kind {
		case KindIterStart:
			te.Name, te.Phase = "iteration", "B"
		case KindIterEnd:
			te.Name, te.Phase = "iteration", "E"
		case KindStateTransfer, KindMPISend, KindMPIRecv, KindMPIBarrier, KindMPICollective, KindSwapRecord:
			te.Phase, te.Dur = "X", ev.Dur*1e6
		default: // SwapDecision, ManagerAssign, HandlerProbe
			te.Phase, te.Scope = "i", "t"
		}
		out = append(out, te)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", " ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return bw.Flush()
}

// eventArgs builds the args payload for the Chrome trace: the event's
// JSON encoding but the four fields the entry itself carries, zero fields
// omitted so instants stay compact and numbers kept as encoded.
func eventArgs(ev Event) (map[string]any, error) {
	b, err := json.Marshal(ev)
	if err != nil {
		return nil, err
	}
	var args map[string]any
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	if err := dec.Decode(&args); err != nil {
		return nil, err
	}
	for _, k := range []string{"kind", "rank", "t", "dur"} {
		delete(args, k)
	}
	return args, nil
}

// ValidateChromeTrace checks that r holds a loadable trace_event JSON
// array: every entry carries the required keys (name, ph, ts, pid, tid).
// It returns the parsed entries for further assertions (cmd/tracecheck
// and the round-trip test build on it).
func ValidateChromeTrace(r io.Reader) ([]map[string]any, error) {
	var entries []map[string]any
	if err := json.NewDecoder(r).Decode(&entries); err != nil {
		return nil, fmt.Errorf("obs: trace is not a JSON array: %w", err)
	}
	for i, e := range entries {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[key]; !ok {
				return nil, fmt.Errorf("obs: trace entry %d missing required key %q", i, key)
			}
		}
	}
	return entries, nil
}
