package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestTCPSendRecv(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			return c.Send(1, 4, []byte("over tcp"))
		}
		d, st, err := c.Recv(0, 4)
		if err != nil {
			return err
		}
		if string(d) != "over tcp" || st.Source != 0 {
			return fmt.Errorf("got %q %+v", d, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReleaseRecyclesReceiveBuffer: on either transport a state-sized
// message whose buffer the receiver released is the array the next one
// arrives in, and what arrives is the second message, not a remnant of
// the first.
func TestReleaseRecyclesReceiveBuffer(t *testing.T) {
	const n = 1<<20 + 64
	body := func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			for i := byte(1); i <= 2; i++ {
				if err := c.Send(1, 4, bytes.Repeat([]byte{i}, n)); err != nil {
					return err
				}
				if _, _, err := c.Recv(1, 5); err != nil { // the receiver is done with message i
					return err
				}
			}
			return nil
		}
		var first *byte
		for i := byte(1); i <= 2; i++ {
			d, _, err := c.Recv(0, 4)
			if err != nil {
				return err
			}
			if !bytes.Equal(d, bytes.Repeat([]byte{i}, n)) {
				return fmt.Errorf("message %d arrived changed", i)
			}
			if i == 1 {
				first = &d[0]
			} else if &d[0] != first {
				return fmt.Errorf("second message was not delivered in the released buffer")
			}
			c.Release(d)
			if err := c.Send(0, 5, []byte("done")); err != nil {
				return err
			}
		}
		return nil
	}
	tcp, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]*World{"tcp": tcp, "inproc": NewWorld(2)} {
		if err := w.Run(body); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTCPCollectives(t *testing.T) {
	w, err := NewTCPWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if err := c.Barrier(); err != nil {
			return err
		}
		sum, err := c.AllReduceFloat64(OpSum, 1)
		if err != nil {
			return err
		}
		if sum != 4 {
			return fmt.Errorf("sum = %g", sum)
		}
		var data []byte
		if r.Rank() == 3 {
			data = bytes.Repeat([]byte{7}, 1<<16) // 64 KiB payload
		}
		got, err := c.Bcast(3, data)
		if err != nil {
			return err
		}
		if len(got) != 1<<16 || got[0] != 7 {
			return fmt.Errorf("bcast payload corrupted: len %d", len(got))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPFIFO(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 0, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			d, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			if d[0] != byte(i) {
				return fmt.Errorf("out of order at %d: %d", i, d[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPManyRanks(t *testing.T) {
	w, err := NewTCPWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(r *Rank) error {
		c := r.World()
		for round := 0; round < 5; round++ {
			v, err := c.AllReduceFloat64(OpSum, float64(r.Rank()))
			if err != nil {
				return err
			}
			if v != 28 {
				return fmt.Errorf("round %d sum %g", round, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTCPWorldCloseIsIdempotent(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(r *Rank) error { return nil }); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w.Close()
}

// TestTCPSendLatencySampling pins the telemetry gate: latency samples
// land in "mpi.tcp.send_latency_s" only while sampling is enabled, so
// disabled telemetry keeps the send hot path at one atomic load — and
// every socket write is sampled whoever makes it: a lone small send is
// written by its sender, so its sample is there when Send returns.
func TestTCPSendLatencySampling(t *testing.T) {
	w, err := NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	hist := w.Metrics().Histogram("mpi.tcp.send_latency_s", 0, 0.010, 50)
	var offN, sentN int
	err = w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 1 { // echo three rounds
			for tag := 1; tag <= 3; tag++ {
				if _, _, err := c.Recv(0, tag); err != nil {
					return err
				}
				if err := c.Send(0, tag+10, nil); err != nil {
					return err
				}
			}
			return nil
		}
		roundTrip := func(tag int, sent func()) error {
			if err := c.Send(1, tag, []byte("x")); err != nil {
				return err
			}
			if sent != nil {
				sent()
			}
			_, _, err := c.Recv(1, tag+10)
			return err
		}
		if err := roundTrip(1, nil); err != nil { // sampling off
			return err
		}
		s := hist.Snapshot()
		offN = s.N()
		w.SetSendLatencySampling(true)
		err := roundTrip(2, func() {
			// Nothing else is sending to rank 1, so this goroutine held
			// the write token: no polling for a flusher to catch up. (The
			// echo's sample may be in already too.)
			snap := hist.Snapshot()
			sentN = snap.N()
		})
		if err != nil {
			return err
		}
		w.SetSendLatencySampling(false)
		return roundTrip(3, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if offN != 0 {
		t.Fatalf("sampling off but %d samples recorded", offN)
	}
	if sentN == 0 {
		t.Fatal("sampling on but a lone send's write was not sampled by the time Send returned")
	}
	if q := w.Metrics().Counter("mpi.tcp.queued_sends").Load(); q != 0 {
		t.Fatalf("%d sends went through the flusher on connections with one sender each, want 0", q)
	}
	// After re-disabling, only the on-phase round trip (tag 2 out, echo
	// back) can have contributed samples.
	if s := hist.Snapshot(); s.N() > 2 {
		t.Fatalf("sampling re-disabled but %d samples recorded", s.N())
	}
}
