package mpi

import (
	"bytes"
	"fmt"
	"testing"
)

func TestSendRecvFloat64s(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			return c.SendFloat64s(1, 3, []float64{1.5, -2.25, 1e9})
		}
		xs, st, err := c.RecvFloat64s(0, 3)
		if err != nil {
			return err
		}
		if st.Source != 0 || len(xs) != 3 || xs[0] != 1.5 || xs[1] != -2.25 || xs[2] != 1e9 {
			return fmt.Errorf("got %v %+v", xs, st)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvFloat64sRejectsOddPayload(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			return c.Send(1, 0, []byte{1, 2, 3})
		}
		if _, _, err := c.RecvFloat64s(0, 0); err == nil {
			return fmt.Errorf("odd payload decoded as floats")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvExchange(t *testing.T) {
	// Both ranks SendRecv to each other simultaneously: must not deadlock.
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		peer := 1 - r.Rank()
		out := []byte{byte(r.Rank())}
		in, st, err := c.SendRecv(peer, 4, out, peer, 4)
		if err != nil {
			return err
		}
		if in[0] != byte(peer) || st.Source != peer {
			return fmt.Errorf("rank %d got %v from %d", r.Rank(), in, st.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		var parts [][]byte
		if r.Rank() == 1 {
			for i := 0; i < 4; i++ {
				parts = append(parts, bytes.Repeat([]byte{byte(i)}, i+1))
			}
		}
		mine, err := c.Scatter(1, parts)
		if err != nil {
			return err
		}
		want := bytes.Repeat([]byte{byte(r.Rank())}, r.Rank()+1)
		if !bytes.Equal(mine, want) {
			return fmt.Errorf("rank %d got %v", r.Rank(), mine)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScatterWrongPartsCount(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		if r.Rank() == 0 {
			if _, err := c.Scatter(0, [][]byte{{1}}); err == nil {
				return fmt.Errorf("scatter accepted 1 part for 2 members")
			}
			// Unblock peer with a real scatter.
			_, err := c.Scatter(0, [][]byte{{1}, {2}})
			return err
		}
		_, err := c.Scatter(0, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherVariableSizes(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		mine := bytes.Repeat([]byte{byte(r.Rank())}, r.Rank()) // rank 0: empty
		all, err := c.AllGather(mine)
		if err != nil {
			return err
		}
		if len(all) != 5 {
			return fmt.Errorf("got %d parts", len(all))
		}
		for i, p := range all {
			if len(p) != i {
				return fmt.Errorf("part %d has len %d", i, len(p))
			}
			for _, b := range p {
				if b != byte(i) {
					return fmt.Errorf("part %d corrupted: %v", i, p)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceFloat64sElementwise(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		xs := []float64{float64(r.Rank()), 10 * float64(r.Rank()), 1}
		out, err := c.ReduceFloat64s(0, OpSum, xs)
		if err != nil {
			return err
		}
		if r.Rank() != 0 {
			if out != nil {
				return fmt.Errorf("non-root got %v", out)
			}
			return nil
		}
		want := []float64{3, 30, 3}
		for i := range want {
			if out[i] != want[i] {
				return fmt.Errorf("reduce = %v", out)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceFloat64sMax(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		xs := []float64{float64(r.Rank()), -float64(r.Rank())}
		out, err := c.AllReduceFloat64s(OpMax, xs)
		if err != nil {
			return err
		}
		if out[0] != 3 || out[1] != 0 {
			return fmt.Errorf("rank %d allreduce = %v", r.Rank(), out)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReduceFloat64sLengthMismatch(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		xs := []float64{1}
		if r.Rank() == 1 {
			xs = []float64{1, 2}
		}
		_, err := c.ReduceFloat64s(0, OpSum, xs)
		if r.Rank() == 0 && err == nil {
			return fmt.Errorf("length mismatch accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIprobe(t *testing.T) {
	transports(t, 2, func(t *testing.T, w *World) {
		err := w.Run(func(r *Rank) error {
			c := r.World()
			if r.Rank() == 0 {
				if err := c.Send(1, 6, []byte("x")); err != nil {
					return err
				}
				return c.Send(1, 7, []byte("sync"))
			}
			// Wait for the sync message so tag 6 is definitely queued.
			if _, _, err := c.Recv(0, 7); err != nil {
				return err
			}
			ok, st := c.Iprobe(0, 6)
			if !ok || st.Source != 0 || st.Tag != 6 {
				return fmt.Errorf("Iprobe = %v %+v", ok, st)
			}
			// Probe does not consume: message still receivable.
			if _, _, err := c.Recv(0, 6); err != nil {
				return err
			}
			// Nothing else queued.
			if ok, _ := c.Iprobe(AnySource, AnyTag); ok {
				return fmt.Errorf("Iprobe found a ghost message")
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestPackPartsRoundTrip(t *testing.T) {
	in := [][]byte{{}, {1}, {2, 3, 4}, nil}
	out, err := unpackParts(packParts(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d", len(out))
	}
	for i := range in {
		if !bytes.Equal(out[i], in[i]) {
			t.Fatalf("part %d: %v vs %v", i, out[i], in[i])
		}
	}
}

func TestUnpackPartsTruncated(t *testing.T) {
	for _, data := range [][]byte{
		{},
		{0, 0, 0, 0, 0, 0, 0, 2}, // claims 2 parts, no data
		packParts([][]byte{{1, 2, 3}})[:10],
	} {
		if _, err := unpackParts(data); err == nil {
			t.Fatalf("truncated payload %v decoded", data)
		}
	}
}
