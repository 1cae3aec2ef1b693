package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one round
// share its round id; parent is the id of the span that caused this
// one (0 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	ID     int    `json:"id"`
	Round  int    `json:"round"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, which is how untraced runs pay no cost.
type recorder struct {
	mu    sync.Mutex
	spans []span
	base  time.Time
	round int
}

// newRecorder starts a recorder whose spans all carry the given round id.
func newRecorder(round int) *recorder { return &recorder{base: time.Now(), round: round} }

// now reports nanoseconds on the recorder's timeline.
func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: t, Parent: parent, ID: len(r.spans) + 1, Round: r.round})
	return len(r.spans)
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere; start and
// end are offsets from t0 on the recorder's timeline.
func (r *recorder) add(name string, parent int, start, end int64) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: len(r.spans) + 1, Round: r.round})
	return len(r.spans)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover (overlapping children are
// counted once; a child reaching outside its parent is clipped).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// endAt closes a span at a given instant on the recorder's timeline.
func (r *recorder) endAt(id int, t int64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}
