package simkern

import (
	"sort"
	"testing"
)

func TestEventTime(t *testing.T) {
	k := New()
	e := k.At(3.5, func() {})
	if e.Time() != 3.5 {
		t.Fatalf("Time = %g", e.Time())
	}
}

func TestCancelIsIdempotentAndPostRunSafe(t *testing.T) {
	k := New()
	e := k.At(1, func() {})
	k.Run()
	e.Cancel()
	e.Cancel()
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	k := New()
	e := k.At(1, func() { t.Fatal("cancelled event ran") })
	fired := false
	k.At(2, func() { fired = true })
	e.Cancel()
	k.RunUntil(3)
	if !fired {
		t.Fatal("live event after cancelled head not executed")
	}
}

func TestStuckIgnoresCancelledEvents(t *testing.T) {
	k := New()
	k.Go("p", func(p *Proc) { p.Park() })
	e := k.At(100, func() {})
	k.Run() // executes the event at t=100, proc still parked
	_ = e
	if got := k.Stuck(); len(got) != 1 {
		t.Fatalf("Stuck = %v", got)
	}
	// Now only cancelled events remain pending.
	e2 := k.At(200, func() {})
	e2.Cancel()
	if got := k.Stuck(); len(got) != 1 {
		t.Fatalf("Stuck with only cancelled events = %v", got)
	}
}

func TestStuckNilWhenLiveEventsRemain(t *testing.T) {
	k := New()
	p := k.Go("p", func(p *Proc) { p.Park() })
	k.RunUntil(0.5)
	k.At(1, func() { p.Unpark() })
	if got := k.Stuck(); got != nil {
		t.Fatalf("Stuck reported %v while a wake event is pending", got)
	}
	k.Run()
}

func TestNaNSchedulePanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	nan := 0.0
	nan /= nan
	k.At(nan, func() {})
}

func TestNewBarrierInvalidPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewBarrier(k, 0)
}

func TestProcNameAndKernel(t *testing.T) {
	k := New()
	var p *Proc
	p = k.Go("worker-7", func(q *Proc) {
		if q.Name() != "worker-7" || q.Kernel() != k {
			t.Error("Proc identity wrong")
		}
	})
	k.Run()
	_ = p
}

func TestManyProcsManyBarrierRounds(t *testing.T) {
	// Stress: 32 procs, 50 rounds, random-ish sleeps; everyone must
	// finish and time must advance monotonically per round.
	k := New()
	const procs, rounds = 32, 50
	b := NewBarrier(k, procs)
	finished := 0
	for i := 0; i < procs; i++ {
		d := 0.1 + float64(i)*0.01
		k.Go("p", func(p *Proc) {
			for r := 0; r < rounds; r++ {
				p.Sleep(d)
				b.Wait(p)
			}
			finished++
		})
	}
	k.Run()
	if finished != procs {
		t.Fatalf("finished = %d", finished)
	}
	if stuck := k.Stuck(); stuck != nil {
		t.Fatalf("stuck procs: %v", stuck)
	}
}

// The kernel reuses queue entries; a handle must keep naming the one
// scheduling it was returned for. Cancelling through a handle whose
// event already ran — or was already cancelled and discarded — must not
// touch whatever occupies the recycled entry now.
func TestStaleHandleDoesNotCancelRecycledEntry(t *testing.T) {
	k := New()
	ran := k.At(1, func() {})
	dropped := k.At(2, func() { t.Error("cancelled event ran") })
	dropped.Cancel()
	k.Run() // both entries are back on the free list

	fired := 0
	a := k.At(3, func() { fired++ })
	b := k.At(4, func() { fired++ })
	ran.Cancel()
	dropped.Cancel()
	if a.Time() != 3 || b.Time() != 4 || ran.Time() != 1 {
		t.Fatalf("handle times %g %g %g", a.Time(), b.Time(), ran.Time())
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("%d of 2 events ran after stale Cancels", fired)
	}

	// A callback may cancel its own (already retired) event and schedule
	// into the entry it ran from.
	var self Event
	self = k.At(5, func() {
		self.Cancel()
		k.After(1, func() { fired++ })
	})
	k.Run()
	if fired != 3 || k.Now() != 6 {
		t.Fatalf("fired %d, now %g", fired, k.Now())
	}
	var zero Event
	zero.Cancel()
}

// Scheduling allocates nothing once the queue has been as deep before:
// After + Step on a kernel holding 64 pending events, and a cancelled
// event scheduled and discarded.
func TestEventAllocations(t *testing.T) {
	k := New()
	nop := func() {}
	for i := 0; i < 64; i++ {
		k.After(float64(i+1), nop)
	}
	k.After(64, nop)
	k.Step()
	if got := testing.AllocsPerRun(1000, func() {
		k.After(64, nop)
		k.Step()
	}); got != 0 {
		t.Errorf("After+Step: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(1000, func() {
		k.After(0, nop).Cancel()
		k.After(0, nop)
		k.Step()
	}); got != 0 {
		t.Errorf("After+Cancel+After+Step: %v allocs, want 0", got)
	}
}

// The queue runs events by (time, scheduling order) — the order a stable
// sort of the schedule by time gives — with events scheduled from inside
// callbacks and cancelled ones interleaved.
func TestQueueOrderMatchesStableSort(t *testing.T) {
	k := New()
	type sched struct {
		at float64
		id int
	}
	var want []sched
	var got []int
	id := 0
	state := uint32(12345)
	next := func(n int) int { // xorshift; the test must not depend on internal/rng
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return int(state % uint32(n))
	}
	var add func(base float64, depth int)
	add = func(base float64, depth int) {
		at := base + float64(next(7)) // few distinct times: many ties
		me := id
		id++
		h := k.At(at, func() {
			got = append(got, me)
			if depth < 3 && next(3) == 0 {
				add(k.Now(), depth+1)
			}
		})
		if next(5) == 0 {
			h.Cancel()
			return
		}
		want = append(want, sched{at, me})
	}
	for i := 0; i < 400; i++ {
		add(0, 0)
	}
	k.Run()
	// Events added from callbacks were appended to want as they were
	// scheduled, so ids are in scheduling order and a stable sort by time
	// is the reference.
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i].id {
			t.Fatalf("position %d: ran event %d, want %d", i, got[i], want[i].id)
		}
	}
}
