package mpi

import (
	"fmt"
	"testing"
)

func TestCommMembersAndWorldRank(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(r *Rank) error {
		if r.Rank() != 0 && r.Rank() != 3 {
			return nil
		}
		c := r.CommOf([]int{3, 0}, 9)
		m := c.Members()
		if len(m) != 2 || m[0] != 3 || m[1] != 0 {
			return fmt.Errorf("Members = %v", m)
		}
		if c.WorldRank(0) != 3 || c.WorldRank(1) != 0 {
			return fmt.Errorf("WorldRank mapping wrong")
		}
		if c.Size() != 2 {
			return fmt.Errorf("Size = %d", c.Size())
		}
		// Mutating the returned slice must not affect the comm.
		m[0] = 99
		if c.WorldRank(0) != 3 {
			return fmt.Errorf("Members aliases internal state")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizeAccessors(t *testing.T) {
	w := NewWorld(7)
	if w.Size() != 7 {
		t.Fatalf("Size = %d", w.Size())
	}
	err := w.Run(func(r *Rank) error {
		if r.Size() != 7 {
			return fmt.Errorf("rank sees size %d", r.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommOfValidation(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(r *Rank) error {
		for _, members := range [][]int{{}, {0, 5}, {0, 0}} {
			members := members
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("CommOf(%v) did not panic", members)
					}
				}()
				r.CommOf(members, 1)
			}()
		}
		return nil
	})
}

func TestBcastBadRoot(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(r *Rank) error {
		if _, err := r.World().Bcast(5, nil); err == nil {
			return fmt.Errorf("bad bcast root accepted")
		}
		if _, err := r.World().Gather(-1, nil); err == nil {
			return fmt.Errorf("bad gather root accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSingletonWorldCollectives(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		if err := c.Barrier(); err != nil {
			return err
		}
		got, err := c.Bcast(0, []byte("solo"))
		if err != nil || string(got) != "solo" {
			return fmt.Errorf("bcast: %q %v", got, err)
		}
		v, err := c.AllReduceFloat64(OpSum, 42)
		if err != nil || v != 42 {
			return fmt.Errorf("allreduce: %g %v", v, err)
		}
		all, err := c.AllGather([]byte("x"))
		if err != nil || len(all) != 1 || string(all[0]) != "x" {
			return fmt.Errorf("allgather: %v %v", all, err)
		}
		sub, err := c.Split(0, 0)
		if err != nil || sub.Size() != 1 {
			return fmt.Errorf("split: %v %v", sub, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldCannotBeReusedAfterRun(t *testing.T) {
	w := NewWorld(2)
	if err := w.Run(func(r *Rank) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// A second Run finds every mailbox closed: communication fails fast
	// with ErrWorldClosed instead of hanging.
	err := w.Run(func(r *Rank) error {
		if r.Rank() == 1 {
			_, _, err := r.World().Recv(0, 0)
			return err
		}
		return nil
	})
	if err == nil {
		t.Fatal("closed world allowed communication")
	}
}

func TestStressManyRanksManyRounds(t *testing.T) {
	const ranks, rounds = 16, 25
	w := NewWorld(ranks)
	err := w.Run(func(r *Rank) error {
		c := r.World()
		for round := 0; round < rounds; round++ {
			// Mixed collective workload in lockstep.
			if err := c.Barrier(); err != nil {
				return err
			}
			v, err := c.AllReduceFloat64(OpSum, 1)
			if err != nil {
				return err
			}
			if v != ranks {
				return fmt.Errorf("round %d sum %g", round, v)
			}
			got, err := c.Bcast(round%ranks, []byte{byte(round)})
			if err != nil {
				return err
			}
			if got[0] != byte(round) {
				return fmt.Errorf("round %d bcast %v", round, got)
			}
			// Neighbour ring exchange.
			next := (c.Rank() + 1) % ranks
			prev := (c.Rank() + ranks - 1) % ranks
			in, _, err := c.SendRecv(next, 1, []byte{byte(c.Rank())}, prev, 1)
			if err != nil {
				return err
			}
			if int(in[0]) != prev {
				return fmt.Errorf("ring got %d want %d", in[0], prev)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCommIDsArePinned: communicator IDs travel on the wire and scope
// message matching, so every rank must derive them bit for bit as the
// ranks it talks to do. These are the IDs CommOf and Split derive from
// the 64-bit FNV-1a of the parent ID, the salt and the members.
func TestCommIDsArePinned(t *testing.T) {
	w := NewWorld(6)
	for _, c := range []struct {
		members []int
		epoch   uint64
		id      uint64
	}{
		{[]int{0}, 0, 0x32fafbde9363ec92},
		{[]int{0, 1}, 0, 0xf3b31ff57291b485},
		{[]int{2, 1}, 1, 0x1bb5b732b633fb6c},
		{[]int{3, 0, 5}, 7, 0x07aab0902e80b1e5},
		{[]int{5, 4, 3, 2, 1, 0}, 1 << 40, 0x9c187a1d5543fc38},
		{[]int{1, 0}, ^uint64(0), 0xc1ba2f0023fa3f5d},
		// These two hash to the world's ID, 0, and are moved to 1.
		{[]int{0, 1}, 0x98a0a738b367cd9f, 1},
		{[]int{1, 0}, 0x6ea2b69dc643a3e4, 1},
	} {
		if id := newRank(w, 0).CommOf(c.members, c.epoch).ID(); id != c.id {
			t.Errorf("CommOf(%v, %d).ID() = %#x, want %#x", c.members, c.epoch, id, c.id)
		}
	}

	// Split by parity, keyed in reverse, then each half split again.
	want := map[int][2]uint64{
		0: {0xdea4e370145f9653, 0x222f2ca9d99fc5a4},
		1: {0x8142e18811a39593, 0x11c212fc0101a306},
	}
	err := w.Run(func(r *Rank) error {
		sub, err := r.World().Split(r.Rank()%2, -r.Rank())
		if err != nil {
			return err
		}
		sub2, err := sub.Split(0, r.Rank())
		if err != nil {
			return err
		}
		if got := [2]uint64{sub.ID(), sub2.ID()}; got != want[r.Rank()%2] {
			return fmt.Errorf("rank %d: split IDs %#x, want %#x", r.Rank(), got, want[r.Rank()%2])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
