// Package simkern is a discrete-event simulation kernel in the style of
// SimGrid/SimPy: a virtual clock and a cancellable event queue. A
// simulated activity is a chain of events — each callback schedules the
// next — and runs on the goroutine that calls Run, so a panic inside it
// reaches Run's caller. That is how the execution techniques run.
//
// Proc is the process-per-rank facility: a coroutine-style simulated
// process on its own goroutine that can sleep on virtual time or park
// until another component wakes it, for models written as one
// sequential body per process.
//
// The kernel is strictly sequential: at most one event callback or one
// simulated process runs at a time, so simulation state needs no locking.
// Determinism is guaranteed by ordering simultaneous events by scheduling
// sequence number.
package simkern

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
)

// Kernel owns the virtual clock and event queue. Create one with New.
type Kernel struct {
	now    float64
	seq    uint64
	events eventHeap
	free   []*event // executed or discarded events, for reuse by At
	// yield synchronizes the kernel goroutine with the single running
	// Proc: a process sends on yield exactly once each time it blocks or
	// terminates. yield and parked are made by the first Go.
	yield  chan struct{}
	parked map[*Proc]struct{}
	tracer *obs.Tracer
	causal *obs.Causal
}

// New returns an empty kernel at virtual time 0.
func New() *Kernel { return &Kernel{} }

// Now reports the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// SetTracer attaches an event tracer that simulated components read via
// Tracer. Construct it with obs.WithClock(k.Now) — or stamp events with
// explicit virtual times — so a simulated run produces the same trace
// format as a live run, just on the virtual clock. The kernel is
// sequential, so no synchronization is needed.
func (k *Kernel) SetTracer(t *obs.Tracer) { k.tracer = t }

// Tracer reports the attached tracer (nil when none; nil is safe to use).
func (k *Kernel) Tracer() *obs.Tracer { return k.tracer }

// SetCausal arms Lamport causal clocks for the simulated ranks, so a
// simulated run emits the same MsgSend/MsgRecv happens-before events —
// on virtual time — that a live causal world does. Leave nil (the
// default) to keep traces byte-identical to pre-causal runs.
func (k *Kernel) SetCausal(c *obs.Causal) { k.causal = c }

// Causal reports the armed causal clocks (nil when causal tracing is off).
func (k *Kernel) Causal() *obs.Causal { return k.causal }

// event is one queue entry. The kernel recycles entries: once an entry
// has run or been discarded its generation moves on and At may hand it
// out again, so scheduling allocates nothing in the steady state.
type event struct {
	at        float64
	seq       uint64
	fn        func()
	proc      *Proc // when set, the event dispatches proc and fn is nil
	cancelled bool
	gen       uint64
}

// Event is a handle on a scheduled callback, which can be cancelled until
// it runs. A handle names one scheduling, not the queue entry under it:
// it stays safe to use (and does nothing) after its callback has run, and
// the zero Event is a handle on nothing.
type Event struct {
	e   *event
	gen uint64
	at  float64
}

// Time reports the virtual time the event is scheduled at.
func (h Event) Time() float64 { return h.at }

// Cancel prevents the event from running. Cancelling an already-executed
// or already-cancelled event is a no-op.
func (h Event) Cancel() {
	if h.e != nil && h.e.gen == h.gen {
		h.e.cancelled = true
	}
}

// At schedules fn to run at virtual time t. Scheduling in the past panics:
// it is always a simulation bug.
func (k *Kernel) At(t float64, fn func()) Event { return k.schedule(t, fn, nil) }

// schedule queues fn, or the dispatch of p, at virtual time t.
func (k *Kernel) schedule(t float64, fn func(), p *Proc) Event {
	if t < k.now {
		panic(fmt.Sprintf("simkern: scheduling at %g before now %g", t, k.now))
	}
	if math.IsNaN(t) {
		panic("simkern: scheduling at NaN")
	}
	var e *event
	if n := len(k.free); n > 0 {
		e, k.free = k.free[n-1], k.free[:n-1]
	} else {
		e = new(event)
	}
	e.at, e.seq, e.fn, e.proc = t, k.seq, fn, p
	k.seq++
	k.events.push(e)
	return Event{e: e, gen: e.gen, at: t}
}

// pop removes the next queue entry and retires it: handles on it go
// stale and the entry returns to the free list. The entry's callback is
// returned by value, so it may schedule (and so reuse the entry) freely.
func (k *Kernel) pop() (at float64, fn func(), p *Proc, cancelled bool) {
	e := k.events.pop()
	at, fn, p, cancelled = e.at, e.fn, e.proc, e.cancelled
	e.fn, e.proc, e.cancelled = nil, nil, false
	e.gen++
	k.free = append(k.free, e)
	return at, fn, p, cancelled
}

// After schedules fn to run d seconds from now. Negative d panics.
func (k *Kernel) After(d float64, fn func()) Event { return k.At(k.now+d, fn) }

// Pending reports the number of scheduled (possibly cancelled) events.
func (k *Kernel) Pending() int { return len(k.events) }

// Step executes the next event, advancing the clock. It reports whether an
// event was executed (false when the queue is empty).
func (k *Kernel) Step() bool {
	for len(k.events) > 0 {
		at, fn, p, cancelled := k.pop()
		if cancelled {
			continue
		}
		k.now = at
		if p != nil {
			p.dispatch()
		} else {
			fn()
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty. It returns the final
// virtual time. If simulated processes remain parked with no event that
// could ever wake them, Run returns with those processes stuck; callers
// can detect that with Stuck.
func (k *Kernel) Run() float64 {
	for k.Step() {
	}
	return k.now
}

// RunUntil executes events with time <= t, then advances the clock to t
// (if the queue empties or the next event is later). It returns the final
// virtual time, which is always t unless an event pushed time beyond it.
func (k *Kernel) RunUntil(t float64) float64 {
	for len(k.events) > 0 {
		// Peek: heap root is events[0].
		e := k.events[0]
		if e.cancelled {
			k.pop()
			continue
		}
		if e.at > t {
			break
		}
		k.Step()
	}
	if k.now < t {
		k.now = t
	}
	return k.now
}

// Stuck returns the names of processes that are parked while no events
// remain — a deadlock in the simulated system.
func (k *Kernel) Stuck() []string {
	if len(k.events) > 0 {
		// Not necessarily stuck: events might wake them.
		live := 0
		for _, e := range k.events {
			if !e.cancelled {
				live++
			}
		}
		if live > 0 {
			return nil
		}
	}
	var names []string
	for p := range k.parked {
		names = append(names, p.name)
	}
	// parked is a map; sort so deadlock diagnostics are deterministic.
	sort.Strings(names)
	return names
}

// eventHeap is a binary min-heap of events ordered by (time, seq).
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q) - 1
	top := q[0]
	q[0], q[n] = q[n], nil
	q = q[:n]
	*h = q
	for i := 0; ; {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q.less(r, child) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q[i], q[child] = q[child], q[i]
		i = child
	}
	return top
}
