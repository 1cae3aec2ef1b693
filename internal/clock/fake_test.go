package clock

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// Concurrent sleepers on the virtual clock are woken in timestamp order,
// each reading exactly its own deadline: the clock cannot move while the
// woken participant runs, so a waiter fired out of order would read a
// later time.
func TestFakeWakesSleepersInTimestampOrder(t *testing.T) {
	f := NewFakeAuto()
	start := f.Now()
	delays := []time.Duration{70 * time.Millisecond, 10 * time.Millisecond,
		40 * time.Millisecond, 100 * time.Millisecond, 40 * time.Millisecond}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var woke []time.Duration
	wg.Add(len(delays))
	Go(f, len(delays), func(i int) {
		defer wg.Done()
		d := delays[i]
		f.Sleep(d)
		if at := f.Since(start); at != d {
			t.Errorf("sleeper %v woke at %v (out-of-order wakeup)", d, at)
		}
		mu.Lock()
		woke = append(woke, d)
		mu.Unlock()
	})
	wg.Wait()
	if !slices.IsSorted(woke) || len(woke) != len(delays) {
		t.Fatalf("sleepers woke in the order %v", woke)
	}
}

// One Advance must fire every callback in its window and leave later
// ones pending.
func TestFakeAdvancePastMultipleTimers(t *testing.T) {
	f := NewFake()
	start := f.Now()
	fired := make(chan int, 3)
	for i, d := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 500 * time.Millisecond} {
		f.AfterFunc(d, func() { fired <- i })
	}

	f.Advance(50 * time.Millisecond)
	got := []int{<-fired, <-fired}
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1}) {
		t.Errorf("callbacks %v fired, want 0 and 1", got)
	}
	if n := f.WaiterCount(); n != 1 {
		t.Fatalf("WaiterCount = %d, want 1 (the 500ms callback pending)", n)
	}
	if !f.Now().Equal(start.Add(50 * time.Millisecond)) {
		t.Fatalf("clock settled at %v, want start+50ms", f.Now())
	}
	select {
	case i := <-fired:
		t.Fatalf("callback %d fired early", i)
	default:
	}
	f.Advance(450 * time.Millisecond)
	if i := <-fired; i != 2 {
		t.Errorf("callback %d fired at 500ms", i)
	}
}

func TestFakeTimerStop(t *testing.T) {
	f := NewFake()
	tm := f.AfterFunc(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	if !tm.Stop() {
		t.Fatal("Stop on pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	f.Advance(time.Second)
	if n := f.WaiterCount(); n != 0 {
		t.Fatalf("WaiterCount = %d after stop", n)
	}
}

func TestFakeAfterFuncRunsCallback(t *testing.T) {
	f := NewFake()
	done := make(chan struct{})
	f.AfterFunc(25*time.Millisecond, func() { close(done) })
	f.Advance(24 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("AfterFunc fired early")
	default:
	}
	f.Advance(time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("AfterFunc never ran")
	}
}

// Auto-advance mode: straight-line sleeps complete instantly, and the
// clock reads the sum of the sleeps.
func TestFakeAutoAdvanceSleep(t *testing.T) {
	f := NewFakeAuto()
	start := f.Now()
	wall := time.Now()
	f.Sleep(3 * time.Second)
	f.Sleep(2 * time.Second)
	if got := f.Since(start); got != 5*time.Second {
		t.Fatalf("fake elapsed %v, want 5s", got)
	}
	if real := time.Since(wall); real > time.Second {
		t.Fatalf("auto-advance sleeps took %v of real time", real)
	}
}

// Auto-advance must still fire earlier waiters registered by other
// goroutines before jumping to its own deadline.
func TestFakeAutoAdvanceFiresEarlierWaiters(t *testing.T) {
	f := NewFakeAuto()
	early := make(chan struct{})
	f.AfterFunc(10*time.Millisecond, func() { close(early) })
	f.Sleep(time.Second)
	select {
	case <-early:
	case <-time.After(2 * time.Second):
		t.Fatal("the 10ms callback never ran during a 1s sleep")
	}
}

// Hammer the fake from many goroutines so `go test -race` proves the
// locking. No assertions beyond completion: the schedule is arbitrary.
func TestFakeConcurrentUseRaceClean(t *testing.T) {
	f := NewFake()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				switch j % 4 {
				case 0:
					f.Sleep(time.Duration(i+1) * time.Millisecond)
				case 1:
					f.AfterFunc(time.Duration(j)*time.Millisecond, func() {}).Stop()
				case 2:
					f.Now()
				case 3:
					f.AfterFunc(time.Millisecond, func() {})
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				f.Advance(5 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	f.Advance(time.Hour) // flush stragglers
}

// box is the in-process mailbox's wait in miniature: get parks its
// caller until put gives it a value or its deadline passes, and put and
// the deadline's callback unpark it before they signal.
type box struct {
	vt     *Fake
	mu     sync.Mutex
	cond   *sync.Cond
	vals   []int
	parked bool
}

func newBox(vt *Fake) *box {
	b := &box{vt: vt}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *box) signal() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.parked {
		b.parked = false
		b.vt.Unpark()
	}
	b.cond.Broadcast()
}

func (b *box) put(v int) {
	b.mu.Lock()
	b.vals = append(b.vals, v)
	b.mu.Unlock()
	b.signal()
}

// get returns the first value put, or false once d has passed.
func (b *box) get(d time.Duration) (int, bool) {
	deadline := b.vt.Now().Add(d)
	defer b.vt.AfterFunc(d, b.signal).Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.vals) == 0 {
		if !b.vt.Now().Before(deadline) {
			return 0, false
		}
		b.parked = true
		b.vt.Park()
		b.cond.Wait()
		if b.parked {
			b.parked = false
			b.vt.Unpark()
		}
	}
	v := b.vals[0]
	b.vals = b.vals[1:]
	return v, true
}

// run starts each fn as a participant of f and waits for all of them,
// failing the test if they have not returned after 10 s of wall time.
func run(t *testing.T, f *Fake, fns ...func()) {
	t.Helper()
	var wg sync.WaitGroup
	wg.Add(len(fns))
	Go(f, len(fns), func(i int) {
		defer wg.Done()
		fns[i]()
	})
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("participants still running after 10s: the virtual clock stalled")
	}
}

// TestVirtualParticipantsRunConcurrently: sleepers on the virtual clock
// each wake at exactly their deadlines while another participant runs
// on, and the clock does not move while that one is runnable.
func TestVirtualParticipantsRunConcurrently(t *testing.T) {
	f := NewFakeAuto()
	start := f.Now()
	sleeper := func(d time.Duration, n int) func() {
		return func() {
			for i := 1; i <= n; i++ {
				f.Sleep(d)
				if at := f.Since(start); at != time.Duration(i)*d {
					t.Errorf("sleep %d of %v woke at %v", i, d, at)
				}
			}
		}
	}
	spinner := func() {
		at := f.Now()
		for range 1000 {
			runtime.Gosched()
			if !f.Now().Equal(at) {
				t.Error("the clock moved while a participant was runnable")
				return
			}
		}
		f.Sleep(time.Hour)
	}
	run(t, f, sleeper(3*time.Millisecond, 20), sleeper(7*time.Millisecond, 9), sleeper(time.Second, 1), spinner)
	if at := f.Since(start); at != time.Hour {
		t.Fatalf("clock ends at %v, want the longest sleep, 1h", at)
	}
}

// TestVirtualCallbackParks: a callback that parks is idle, so the clock
// moves on under it to the sleep that wakes it, and reads that sleep's
// deadline when it does.
func TestVirtualCallbackParks(t *testing.T) {
	f := NewFakeAuto()
	start := f.Now()
	ping, pong := newBox(f), newBox(f)
	run(t, f, func() {
		f.AfterFunc(10*time.Millisecond, func() {
			if _, ok := ping.get(time.Hour); !ok {
				t.Error("the callback's wait timed out")
			}
			if at := f.Since(start); at != 30*time.Millisecond {
				t.Errorf("the parked callback woke at %v, want 30ms", at)
			}
			pong.put(1)
		})
		f.Sleep(30 * time.Millisecond)
		ping.put(1)
		if _, ok := pong.get(time.Hour); !ok {
			t.Error("the participant's wait timed out")
		}
	})
	if at := f.Since(start); at != 30*time.Millisecond {
		t.Fatalf("clock ends at %v, want 30ms", at)
	}
}

// TestVirtualUnparkRacesTimer: a value and a receive deadline that fall
// due at one instant race, and either may win, but the receiver wakes
// at that instant, takes the value if it won, and the clock's count of
// runnable participants stays whole: the next sleeps end on time.
func TestVirtualUnparkRacesTimer(t *testing.T) {
	f := NewFakeAuto()
	start := f.Now()
	const rounds, step = 50, 10 * time.Millisecond
	b := newBox(f)
	run(t, f, func() {
		for i := 1; i <= rounds; i++ {
			v, ok := b.get(step)
			if !ok { // the deadline won: the value is due at this instant
				v, ok = b.get(time.Hour)
			}
			if !ok || v != i {
				t.Errorf("round %d: got %d, %v", i, v, ok)
			}
			if at := f.Since(start); at != time.Duration(i)*step {
				t.Errorf("round %d: receiver woke at %v", i, at)
			}
		}
	}, func() {
		for i := 1; i <= rounds; i++ {
			f.Sleep(step)
			b.put(i)
		}
	})
	if at := f.Since(start); at != rounds*step {
		t.Fatalf("clock ends at %v, want %v", at, rounds*step)
	}
}
