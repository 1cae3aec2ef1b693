package clock

import (
	"sync"
	"time"
)

// fakeEpoch is the fixed instant a Fake clock starts at. Any constant
// works; this one is the opening day of HPDC-12, where the source paper
// appeared.
var fakeEpoch = time.Date(2003, 6, 22, 0, 0, 0, 0, time.UTC)

// Fake is a clock for tests and in-process runs. Its waiters — sleeps
// and AfterFunc callbacks — fire in timestamp order (equal deadlines in
// the order they were armed), the clock reading exactly each waiter's
// deadline as it fires. NewFake's clock moves only when Advance moves it.
//
// NewFakeAuto's clock is virtual time: it moves only when no participant
// can. A participant is a goroutine started with Go, or a callback while
// it runs. It is idle while it sleeps on the clock or is parked (Park),
// and runnable otherwise, so one blocked on anything the clock cannot
// see — a socket, a mutex, a channel — holds time still. When the last
// runnable participant goes idle, the clock jumps to the earliest waiter
// and fires it, and the sleeper or callback it fires is runnable. One
// waiter fires at a time, so a run's timestamps are a function of what
// its participants do. With no participant registered, a Sleep jumps the
// clock to its own deadline at once, firing earlier waiters on the way,
// so straight-line code that sleeps runs at full speed with no driver.
//
// All methods are safe for concurrent use.
type Fake struct {
	mu      sync.Mutex
	cond    *sync.Cond
	now     time.Time
	seq     int64
	waiters []*fakeWaiter
	auto    bool
	members int // participants started by Go that have not returned
	running int // participants and callbacks that are not idle
}

type fakeWaiter struct {
	when    time.Time
	seq     int64         // FIFO tiebreak for equal deadlines
	woken   chan struct{} // a Sleep's: closed when it fires
	fn      func()        // an AfterFunc's callback, run in its own goroutine
	sleeper bool          // a participant's Sleep: runnable again once fired
}

// NewFake returns a Fake clock frozen at a fixed epoch. Drive it with
// Advance.
func NewFake() *Fake {
	f := &Fake{now: fakeEpoch}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// NewFakeAuto returns a virtual Fake clock: it advances by itself when
// no participant is runnable, and a Sleep outside any participant
// advances it to the sleep's own deadline.
func NewFakeAuto() *Fake {
	f := NewFake()
	f.auto = true
	return f
}

// Virtual returns clk if it is a virtual clock (NewFakeAuto), else nil:
// what a caller resolves once to Park and Unpark through.
func Virtual(clk Clock) *Fake {
	if f, ok := clk.(*Fake); ok && f.auto {
		return f
	}
	return nil
}

// Go starts fn(0) … fn(n-1), each in its own goroutine. On a virtual
// clock they are participants, all runnable from before the first go
// statement until each returns, so none moves the clock before the
// others have started. On any other clock they are plain goroutines.
func Go(clk Clock, n int, fn func(i int)) {
	f := Virtual(clk)
	if f != nil {
		f.mu.Lock()
		f.members += n
		f.running += n
		f.mu.Unlock()
	}
	for i := range n {
		go func() {
			if f != nil {
				defer func() {
					f.mu.Lock()
					defer f.mu.Unlock()
					f.members--
					f.running--
					f.stepLocked()
				}()
			}
			fn(i)
		}()
	}
}

// Park marks the calling participant idle until Unpark: it waits for
// something only another participant can give it. The giver calls
// Unpark before it signals, so time never moves while a wake-up is on
// its way. Both are no-ops on a nil Fake.
func (f *Fake) Park() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running--
	f.stepLocked()
}

// Unpark marks a parked participant runnable again.
func (f *Fake) Unpark() {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.running++
	f.mu.Unlock()
}

// stepLocked fires the earliest waiter if participants are registered
// and none of them is runnable.
func (f *Fake) stepLocked() {
	if f.members > 0 && f.running == 0 && len(f.waiters) > 0 {
		f.fireLocked(f.waiters[f.earliestLocked()])
	}
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }
func (f *Fake) Until(t time.Time) time.Duration { return t.Sub(f.Now()) }

// Advance moves the clock forward by d, firing every waiter whose
// deadline falls inside the window, in (deadline, registration) order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.advanceToLocked(f.now.Add(d))
}

// advanceToLocked fires all waiters due at or before target in
// timestamp order, then settles the clock at target.
func (f *Fake) advanceToLocked(target time.Time) {
	for len(f.waiters) > 0 {
		w := f.waiters[f.earliestLocked()]
		if w.when.After(target) {
			break
		}
		f.fireLocked(w)
	}
	if target.After(f.now) {
		f.now = target
	}
}

// earliestLocked returns the index of the waiter with the earliest
// deadline, the first armed among equals. There is at least one.
func (f *Fake) earliestLocked() int {
	best := 0
	for i, w := range f.waiters {
		if b := f.waiters[best]; w.when.Before(b.when) || w.when.Equal(b.when) && w.seq < b.seq {
			best = i
		}
	}
	return best
}

// fireLocked moves the clock to w's deadline, removes w and fires it. A
// callback runs in its own goroutine and counts as runnable until it
// returns; so does a participant whose sleep it ends.
func (f *Fake) fireLocked(w *fakeWaiter) {
	if w.when.After(f.now) {
		f.now = w.when
	}
	f.removeLocked(w)
	if w.fn != nil {
		f.running++
		go func() {
			defer f.Park()
			w.fn()
		}()
		return
	}
	if w.sleeper {
		f.running++
	}
	close(w.woken)
}

func (f *Fake) addWaiterLocked(w *fakeWaiter) {
	f.seq++
	w.seq = f.seq
	f.waiters = append(f.waiters, w)
	f.cond.Broadcast()
}

// removeLocked drops w from the pending waiters, reporting whether it
// was there.
func (f *Fake) removeLocked(w *fakeWaiter) bool {
	for i, p := range f.waiters {
		if p == w {
			f.waiters = append(f.waiters[:i], f.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// WaiterCount reports the number of pending waiters (sleeps and
// callbacks not yet fired or stopped).
func (f *Fake) WaiterCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// BlockUntilWaiters blocks until at least n waiters are pending. Tests
// use it to let concurrently started sleepers register before Advance.
func (f *Fake) BlockUntilWaiters(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.waiters) < n {
		f.cond.Wait()
	}
}

func (f *Fake) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	f.mu.Lock()
	w := &fakeWaiter{when: f.now.Add(d), woken: make(chan struct{})}
	f.addWaiterLocked(w)
	switch {
	case f.members > 0:
		// A participant sleeps: idle until the clock reaches it.
		w.sleeper = true
		f.running--
		f.stepLocked()
	case f.auto:
		// Wake everything due before us in timestamp order, ourselves
		// included.
		f.advanceToLocked(w.when)
	}
	f.mu.Unlock()
	<-w.woken
}

func (f *Fake) AfterFunc(d time.Duration, fn func()) *Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &fakeWaiter{when: f.now.Add(d), fn: fn}
	f.addWaiterLocked(w)
	return &Timer{stop: func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.removeLocked(w)
	}}
}
