// Package swaprt is the live MPI-process-swapping runtime, the
// counterpart of the paper's prototype: applications over-allocate a
// world of N+M ranks, register their iteration-loop state, and call
// SwapPoint() once per iteration. A swap manager gathers performance
// measurements from per-rank "swap handlers" (probes), applies a
// core.Policy, and swaps slow active processes with fast spares by
// shipping the registered state between ranks and rebuilding the private
// active communicator — exactly the three-line-change programming model
// the paper describes (register state, call MPI_Swap in the loop, link
// the library).
package swaprt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sort"
)

// stateSet holds the variables registered for transfer on swap, keyed by
// name. Registration order does not matter; encoding is sorted by name so
// both ends agree.
type stateSet struct {
	ptrs map[string]any
}

func newStateSet() *stateSet { return &stateSet{ptrs: map[string]any{}} }

// register adds a pointer under name. Re-registering a name panics: it is
// always an application bug.
func (ss *stateSet) register(name string, ptr any) {
	if ptr == nil {
		panic(fmt.Sprintf("swaprt: Register(%q, nil)", name))
	}
	if _, dup := ss.ptrs[name]; dup {
		panic(fmt.Sprintf("swaprt: state %q registered twice", name))
	}
	ss.ptrs[name] = ptr
}

// names returns the registered names in sorted order.
func (ss *stateSet) names() []string {
	out := make([]string, 0, len(ss.ptrs))
	for n := range ss.ptrs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// encode serializes all registered variables.
func (ss *stateSet) encode() ([]byte, error) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	names := ss.names()
	if err := enc.Encode(names); err != nil {
		return nil, fmt.Errorf("swaprt: encode state names: %w", err)
	}
	for _, n := range names {
		if err := enc.Encode(ss.ptrs[n]); err != nil {
			return nil, fmt.Errorf("swaprt: encode state %q: %w", n, err)
		}
	}
	return buf.Bytes(), nil
}

// decode restores registered variables from an encoded blob. The local
// registration must cover the same names (the application is the same
// program on every rank). Each target is zeroed first: gob omits zero
// struct fields and leaves map entries it was not sent, so decoding over
// a live value would keep the receiver's stale ones.
func (ss *stateSet) decode(data []byte) error {
	dec := gob.NewDecoder(bytes.NewReader(data))
	var names []string
	if err := dec.Decode(&names); err != nil {
		return fmt.Errorf("swaprt: decode state names: %w", err)
	}
	local := ss.names()
	if len(local) != len(names) {
		return fmt.Errorf("swaprt: state mismatch: received %v, registered %v", names, local)
	}
	for i, n := range names {
		if local[i] != n {
			return fmt.Errorf("swaprt: state mismatch: received %v, registered %v", names, local)
		}
	}
	for _, n := range names {
		zeroInPlace(reflect.ValueOf(ss.ptrs[n]))
		if err := dec.Decode(ss.ptrs[n]); err != nil {
			return fmt.Errorf("swaprt: decode state %q: %w", n, err)
		}
	}
	return nil
}

// zeroInPlace resets the value a registered pointer points at. A slice
// keeps its backing array, cleared over its whole capacity and cut to
// length 0: gob decodes into capacity it finds, so a swapped-in grid
// does not reallocate every swap.
func zeroInPlace(ptr reflect.Value) {
	if ptr.Kind() != reflect.Pointer || ptr.IsNil() {
		return // gob reports the unusable target
	}
	v := ptr.Elem()
	if v.Kind() == reflect.Slice {
		v.Slice(0, v.Cap()).Clear()
		v.SetLen(0)
		return
	}
	v.SetZero()
}
