package swaprt

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// staleState is registered state whose sender holds zero values where
// the receiver's copy holds others: a zero field, an empty string, and a
// nested struct that is partly zero.
type staleState struct {
	A, B  int
	Label string
	At    FlatPoint
}

// TestSwapInDoesNotKeepStaleFields ships {A:0, B:5} into a spare whose
// own copy holds non-zero values everywhere: none of the receiver's
// values survives the swap-in.
func TestSwapInDoesNotKeepStaleFields(t *testing.T) {
	want := staleState{A: 0, B: 5, At: FlatPoint{Y: 1}}
	w := mpi.NewWorld(2)
	rt := &rateTable{rates: []float64{100, 800}} // rank 1 is a fast spare
	var mu sync.Mutex
	var got *staleState
	err := Run(w, Config{Active: 1, Policy: core.Greedy(), Probe: rt.probe},
		func(s *Session) error {
			iter := 0
			st := staleState{A: 9, B: 9, Label: "stale", At: FlatPoint{9, 9, "stale"}}
			grid := []float64{9, 9, 9, 9}
			if s.Active() {
				st = want
				grid = []float64{0, 2}
			}
			s.Register("iter", &iter)
			s.Register("st", &st)
			s.Register("grid", &grid)
			for !s.Done() && iter < 4 {
				if s.Active() {
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			if s.Rank() == 1 && s.Active() {
				if len(grid) != 2 || grid[0] != 0 || grid[1] != 2 || cap(grid) != 4 {
					t.Errorf("grid after swap-in = %v (cap %d), want [0 2] in the spare's own backing array (cap 4)",
						grid, cap(grid))
				}
				mu.Lock()
				got = &st
				mu.Unlock()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("rank 1 was never swapped in")
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("state after swap-in = %+v, want %+v", *got, want)
	}
}

// TestLoadCheckpointDoesNotKeepStaleFields is the same defect through
// the checkpoint path, which shares stateSet.decode.
func TestLoadCheckpointDoesNotKeepStaleFields(t *testing.T) {
	var blob bytes.Buffer
	save := staleState{A: 0, B: 5}
	load := staleState{A: 9, B: 9, Label: "stale", At: FlatPoint{9, 9, "stale"}}
	for _, step := range []struct {
		st *staleState
		do func(*Session) error
	}{
		{&save, func(s *Session) error { return s.SaveCheckpoint(&blob) }},
		{&load, func(s *Session) error { return s.LoadCheckpoint(bytes.NewReader(blob.Bytes())) }},
	} {
		step := step
		err := Run(mpi.NewWorld(1), Config{Active: 1}, func(s *Session) error {
			s.Register("st", step.st)
			return step.do(s)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(load, save) {
		t.Fatalf("state after LoadCheckpoint = %+v, want %+v", load, save)
	}
}

// flatState has a slice field that the sender holds shorter than the
// receiver.
type flatState struct {
	A, B int
	Tags []int32
}

// TestSwapInOverwritesWithZeroFields: the sender's zero A and its
// shorter Tags replace the 9s the spare holds, and Tags stays in the
// spare's own backing array.
func TestSwapInOverwritesWithZeroFields(t *testing.T) {
	want := flatState{A: 0, B: 5, Tags: []int32{0, 1}}
	w := mpi.NewWorld(2)
	rt := &rateTable{rates: []float64{100, 800}} // rank 1 is a fast spare
	var mu sync.Mutex
	var got *flatState
	err := Run(w, Config{Active: 1, Policy: core.Greedy(), Probe: rt.probe},
		func(s *Session) error {
			iter := 0
			st := flatState{A: 9, B: 9, Tags: []int32{9, 9, 9}}
			if s.Active() {
				st = flatState{A: 0, B: 5, Tags: []int32{0, 1}}
			}
			s.Register("iter", &iter)
			s.Register("st", &st)
			for !s.Done() && iter < 4 {
				if s.Active() {
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			if s.Rank() == 1 && s.Active() {
				mu.Lock()
				got = &st
				mu.Unlock()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("rank 1 was never swapped in")
	}
	if !reflect.DeepEqual(*got, want) || cap(got.Tags) != 3 {
		t.Fatalf("state after swap-in = %+v (cap %d), want %+v in the spare's own backing array", *got, cap(got.Tags), want)
	}
}
