// Package flight is the crash-safe flight recorder: an always-on,
// bounded per-rank ring of the most recent obs events that persists the
// last moments before a failure. It plugs into the tracer through the
// obs.EventSink seam, so every emit site feeds it whether or not full
// trace buffering is on, and the hot path stays allocation-free: one
// per-rank mutex and an in-place write into a preallocated ring.
//
// Dumps are triggered by the runtime at the crash-adjacent moments
// (swap abort, spare quarantine, rank panic, world close) via
// obs.Tracer.DumpFlight. Each dump rewrites one JSONL file per rank —
// flight-rank<N>.jsonl plus flight-runtime.jsonl for runtime-attributed
// events — in the exact WriteJSONL format, so tracecheck -postmortem
// (and obs.ReadJSONL) parse them back without any recorder in the loop.
// A synthetic RuntimeError marker event carrying the dump reason leads
// every file, which both records why the dump happened and guarantees a
// rank that observed nothing still produces a parseable file.
package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/clock"
	"repro/internal/obs"
)

// DefaultEvents is the per-rank ring capacity: enough to hold several
// swap rounds of causal traffic without the memory cost scaling with
// run length.
const DefaultEvents = 256

// Config configures a Recorder.
type Config struct {
	Dir   string         // dump directory (created on first dump)
	Clock func() float64 // dump-marker timestamps; nil = wall seconds
	Logf  func(string, ...any)
}

// ring is one rank's bounded event window.
type ring struct {
	mu   sync.Mutex
	buf  []obs.Event
	next int    // index of the slot the next event overwrites
	seen uint64 // total events observed (>= len(buf) means it wrapped)
}

func (r *ring) observe(ev obs.Event) {
	r.mu.Lock()
	r.buf[r.next] = ev
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.seen++
	r.mu.Unlock()
}

// snapshot copies the window oldest-first.
func (r *ring) snapshot() []obs.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int(r.seen)
	if n > len(r.buf) {
		n = len(r.buf)
	}
	out := make([]obs.Event, 0, n)
	if r.seen > uint64(len(r.buf)) {
		out = append(out, r.buf[r.next:]...)
		return append(out, r.buf[:r.next]...)
	}
	return append(out, r.buf[:n]...)
}

// Status is a point-in-time view of the recorder for telemetry.
type Status struct {
	Buffered int    // events currently held across all rings
	Observed uint64 // total events ever observed
	Dumps    int    // dumps written so far
	LastDump string // reason of the most recent dump
	Dir      string
}

// Recorder implements obs.EventSink. It is safe for concurrent use by
// every rank goroutine. There is no off switch: a run without a flight
// recorder attaches none.
type Recorder struct {
	dir     string
	clock   func() float64
	logf    func(string, ...any)
	ranks   []*ring
	runtime *ring

	dumpMu   sync.Mutex
	dumps    int
	lastDump string
}

// New creates a recorder for a world of nranks ranks.
func New(nranks int, cfg Config) *Recorder {
	if nranks < 0 {
		panic(fmt.Sprintf("flight: New(%d)", nranks))
	}
	r := &Recorder{
		dir:     cfg.Dir,
		clock:   cfg.Clock,
		logf:    cfg.Logf,
		ranks:   make([]*ring, nranks),
		runtime: &ring{buf: make([]obs.Event, DefaultEvents)},
	}
	for i := range r.ranks {
		r.ranks[i] = &ring{buf: make([]obs.Event, DefaultEvents)}
	}
	if r.clock == nil {
		r.clock = clock.Seconds(clock.Real{})
	}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	return r
}

// Observe records one event into its rank's ring. This is the
// obs.EventSink hot path: one mutex, one struct copy.
func (r *Recorder) Observe(ev obs.Event) {
	rg := r.runtime
	if ev.Rank >= 0 && ev.Rank < len(r.ranks) {
		rg = r.ranks[ev.Rank]
	}
	rg.observe(ev)
}

// Status reports the recorder's current state for telemetry.
func (r *Recorder) Status() Status {
	s := Status{Dir: r.dir}
	for _, rg := range append(append([]*ring(nil), r.ranks...), r.runtime) {
		rg.mu.Lock()
		n := int(rg.seen)
		if n > len(rg.buf) {
			n = len(rg.buf)
		}
		s.Buffered += n
		s.Observed += rg.seen
		rg.mu.Unlock()
	}
	r.dumpMu.Lock()
	s.Dumps = r.dumps
	s.LastDump = r.lastDump
	r.dumpMu.Unlock()
	return s
}

// Dump persists every ring to the dump directory, one JSONL file per
// rank plus one for runtime-attributed events, each led by a marker
// event carrying reason. Later dumps overwrite earlier ones — the rings
// are cumulative, so the final dump of a run supersedes the rest. The
// snapshots are taken before any file I/O so no ring lock is ever held
// across a write.
func (r *Recorder) Dump(reason string) error {
	r.dumpMu.Lock()
	defer r.dumpMu.Unlock()
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		r.logf("flight: dump %q: %v", reason, err)
		return fmt.Errorf("flight: dump: %w", err)
	}
	now := r.clock()
	var firstErr error
	write := func(name string, rank int, evs []obs.Event) {
		marker := obs.Event{
			Kind:   obs.KindRuntimeError,
			Rank:   rank,
			T:      now,
			Detail: "flight-dump: " + reason,
		}
		path := filepath.Join(r.dir, name)
		f, err := os.Create(path)
		if err == nil {
			err = obs.WriteEventsJSONL(f, append([]obs.Event{marker}, evs...))
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			r.logf("flight: dump %s: %v", path, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	for i, rg := range r.ranks {
		write(fmt.Sprintf("flight-rank%d.jsonl", i), i, rg.snapshot())
	}
	write("flight-runtime.jsonl", obs.RankRuntime, r.runtime.snapshot())
	r.dumps++
	r.lastDump = reason
	r.logf("flight: dumped %d rank windows to %s (%s)", len(r.ranks)+1, r.dir, reason)
	return firstErr
}

var _ obs.EventSink = (*Recorder)(nil)
