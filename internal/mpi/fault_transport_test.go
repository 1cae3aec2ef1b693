package mpi

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// stubInjector returns canned verdicts per (src, dst) pair. The fault
// subpackage provides the real implementation; these tests only exercise
// the transport wrapping, so a stub avoids an import cycle.
type stubInjector struct {
	mu       sync.Mutex
	verdicts map[[2]int]FaultVerdict
}

func (s *stubInjector) Fault(src, dst int) FaultVerdict {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.verdicts[[2]int{src, dst}]
}

// transports runs body once per transport, each on a new world of size
// ranks, as a subtest named for the transport.
func transports(t *testing.T, size int, body func(t *testing.T, w *World)) {
	for _, tcp := range []bool{false, true} {
		name := "inproc"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			w, err := NewWorldWithConfig(Config{Size: size, TCP: tcp})
			if err != nil {
				t.Fatal(err)
			}
			body(t, w)
		})
	}
}

func TestRecvTimeout(t *testing.T) {
	transports(t, 2, func(t *testing.T, w *World) {
		err := w.Run(func(r *Rank) error {
			c := r.World()
			switch r.Rank() {
			case 0:
				// Nothing is coming: the receive must time out, not hang.
				_, _, err := c.RecvTimeout(1, 5, 20*time.Millisecond)
				if !errors.Is(err, ErrRecvTimeout) {
					return errors.New("want ErrRecvTimeout")
				}
				// A message that arrives later is still matchable.
				if err := c.Send(1, 9, []byte("go")); err != nil {
					return err
				}
				data, _, err := c.RecvTimeout(1, 7, time.Second)
				if err != nil {
					return err
				}
				if string(data) != "late" {
					return errors.New("wrong payload")
				}
				return nil
			default:
				if _, _, err := c.Recv(0, 9); err != nil {
					return err
				}
				return c.Send(0, 7, []byte("late"))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecvTimeoutWorldClosed(t *testing.T) {
	w := NewWorld(1)
	var r0 *Rank
	if err := w.Run(func(r *Rank) error { r0 = r; return nil }); err != nil {
		t.Fatal(err)
	}
	_, _, err := r0.World().RecvTimeout(0, 3, time.Second)
	if !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("got %v, want ErrWorldClosed", err)
	}
}

func TestFaultTransportDrop(t *testing.T) {
	inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
		{0, 1}: {Drop: true, Detail: "test"},
	}}
	w, err := NewWorldWithConfig(Config{Size: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			// The sender sees success even though the message is eaten.
			return c.Send(1, 1, []byte("lost"))
		}
		_, _, err := c.RecvTimeout(0, 1, 30*time.Millisecond)
		if !errors.Is(err, ErrRecvTimeout) {
			return errors.New("dropped message was delivered")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().Counter("mpi.fault.drops").Load(); got < 1 {
		t.Errorf("mpi.fault.drops = %d, want >= 1", got)
	}
}

func TestFaultTransportErrorAndTrace(t *testing.T) {
	inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
		{0, 1}: {Err: errors.New("refused"), Detail: "rule"},
	}}
	w, err := NewWorldWithConfig(Config{Size: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(2)
	tr.Enable()
	w.SetTracer(tr)
	runErr := w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			err := c.Send(1, 1, []byte("x"))
			if err == nil {
				return errors.New("faulted send succeeded")
			}
			return nil
		}
		return nil
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if got := w.Metrics().Counter("mpi.fault.errors").Load(); got != 1 {
		t.Errorf("mpi.fault.errors = %d, want 1", got)
	}
	found := false
	for _, ev := range tr.Events() {
		if ev.Kind == obs.KindFaultInject && ev.Rank == 0 && ev.Peer == 1 {
			found = true
		}
	}
	if !found {
		t.Error("no FaultInject event recorded")
	}
}

func TestFaultTransportDelay(t *testing.T) {
	inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
		{0, 1}: {Delay: 10 * time.Millisecond, Detail: "slow"},
	}}
	w, err := NewWorldWithConfig(Config{Size: 2, Fault: inj})
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			return c.Send(1, 1, []byte("eventually"))
		}
		data, _, err := c.Recv(0, 1)
		if err != nil {
			return err
		}
		if string(data) != "eventually" {
			return errors.New("wrong payload")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Metrics().Counter("mpi.fault.delays").Load(); got != 1 {
		t.Errorf("mpi.fault.delays = %d, want 1", got)
	}
}

// A world torn down while an injected delay is in flight must fail the
// send with ErrWorldClosed instead of completing it into a dead
// transport. The fake clock makes the interleaving exact: the sender is
// provably inside the delay (BlockUntilWaiters) when Close lands, and
// only then does the clock advance past the delay.
func TestFaultTransportCloseDuringDelay(t *testing.T) {
	fake := clock.NewFake()
	inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
		{0, 1}: {Delay: 10 * time.Second, Detail: "wedged link"},
	}}
	w, err := NewWorldWithConfig(Config{Size: 2, Fault: inj, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	r0 := newRank(w, 0)
	sendErr := make(chan error, 1)
	go func() { sendErr <- r0.World().Send(1, 1, []byte("doomed")) }()

	fake.BlockUntilWaiters(1) // the sender is asleep inside the delay
	w.Close()
	fake.Advance(10 * time.Second)

	if err := <-sendErr; !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("send after close-during-delay returned %v, want ErrWorldClosed", err)
	}
	if got := w.Metrics().Counter("mpi.fault.delays").Load(); got != 1 {
		t.Errorf("mpi.fault.delays = %d, want 1", got)
	}
}

// A delay verdict against an already-closed world must not sleep at all:
// the sender fails fast and no waiter ever registers on the clock.
func TestFaultTransportDelaySkippedAfterClose(t *testing.T) {
	fake := clock.NewFake()
	inj := &stubInjector{verdicts: map[[2]int]FaultVerdict{
		{0, 1}: {Delay: time.Hour, Detail: "wedged link"},
	}}
	w, err := NewWorldWithConfig(Config{Size: 2, Fault: inj, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	r0 := newRank(w, 0)
	if err := r0.World().Send(1, 1, []byte("doomed")); !errors.Is(err, ErrWorldClosed) {
		t.Fatalf("send on closed world returned %v, want ErrWorldClosed", err)
	}
	if n := fake.WaiterCount(); n != 0 {
		t.Fatalf("closed-world delay registered %d clock waiters, want 0", n)
	}
	if got := w.Metrics().Counter("mpi.fault.delays").Load(); got != 0 {
		t.Errorf("mpi.fault.delays = %d, want 0 (skipped, not taken)", got)
	}
}

// RecvTimeout must follow the world's injected clock: nothing times out
// while the fake clock stands still, and the timeout fires the moment it
// advances past the deadline.
func TestRecvTimeoutOnFakeClock(t *testing.T) {
	fake := clock.NewFake()
	w, err := NewWorldWithConfig(Config{Size: 1, Clock: fake})
	if err != nil {
		t.Fatal(err)
	}
	if w.Clock() != clock.Clock(fake) {
		t.Fatal("World.Clock() did not report the injected clock")
	}
	defer w.Close()
	r0 := newRank(w, 0)
	recvErr := make(chan error, 1)
	go func() {
		_, _, err := r0.World().RecvTimeout(0, 3, 5*time.Second)
		recvErr <- err
	}()
	fake.BlockUntilWaiters(1) // the deadline timer is armed
	select {
	case err := <-recvErr:
		t.Fatalf("RecvTimeout returned %v before the fake clock moved", err)
	default:
	}
	fake.Advance(5 * time.Second)
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrRecvTimeout) {
			t.Fatalf("got %v, want ErrRecvTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RecvTimeout never fired after the fake clock advanced past the deadline")
	}
}

func TestNewWorldWithConfigPlain(t *testing.T) {
	// No injector: behaves exactly like NewWorld.
	w, err := NewWorldWithConfig(Config{Size: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.transport.(*inprocTransport); !ok {
		t.Errorf("transport = %T, want inprocTransport", w.transport)
	}
}
