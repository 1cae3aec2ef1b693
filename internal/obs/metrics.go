package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric. The zero value is ready;
// updates are a single atomic add, so counters live on hot paths (the MPI
// transport's per-rank message counters are Counters).
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load reads the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-value metric stored as float64 bits.
type Gauge struct{ v atomic.Uint64 }

// Set records the current value.
func (g *Gauge) Set(x float64) { g.v.Store(math.Float64bits(x)) }

// Load reads the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// LockedHistogram is a stats.Histogram safe for concurrent Add.
type LockedHistogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Add incorporates x.
func (lh *LockedHistogram) Add(x float64) {
	lh.mu.Lock()
	lh.h.Add(x)
	lh.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (lh *LockedHistogram) Snapshot() stats.Histogram {
	lh.mu.Lock()
	defer lh.mu.Unlock()
	cp := *lh.h
	cp.Counts = append([]int(nil), lh.h.Counts...)
	return cp
}

// Registry is a named collection of counters, gauges and histograms. Hot
// paths hold the returned metric handles; the registry lock is taken only
// at registration and snapshot time. The MPI world and the swapping
// runtime each populate one, and RunStats / World.Stats are views over
// the registered values.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*LockedHistogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*LockedHistogram{},
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Safe for concurrent use; callers keep the handle.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given shape on first use (the shape of an existing histogram wins).
func (r *Registry) Histogram(name string, lo, hi float64, bins int) *LockedHistogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &LockedHistogram{h: stats.NewHistogram(lo, hi, bins)}
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every metric's current value keyed by name, with
// histograms flattened to "<name>.bin<i>" counts plus under/over. The map
// is a fresh copy; iterate its sorted Names for deterministic output.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]float64{}
	for name, c := range r.counters {
		out[name] = float64(c.Load())
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	for name, lh := range r.hists {
		h := lh.Snapshot()
		for i, n := range h.Counts {
			out[fmt.Sprintf("%s.bin%d", name, i)] = float64(n)
		}
		out[name+".under"] = float64(h.Under)
		out[name+".over"] = float64(h.Over)
	}
	return out
}

// Names returns the snapshot's keys in sorted order.
func Names(snap map[string]float64) []string {
	out := make([]string, 0, len(snap))
	for k := range snap {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
