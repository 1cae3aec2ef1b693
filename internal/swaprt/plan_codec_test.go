package swaprt

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzPlanCommitDecode: the plan and commit messages arrive from another
// rank, so both decoders read every input. Neither may panic, neither
// may allocate beyond what the input's own size backs (the count is
// checked against the bytes behind it before the make), and the layout
// has no slack — an input either decoder accepts re-encodes to itself.
func FuzzPlanCommitDecode(f *testing.F) {
	plan := encodePlan([]SwapDirective{{Out: 0, In: 3}, {Out: -1, In: 2}})
	commit := encodeCommit(commitMsg{Epoch: 7, Commit: true, NewSet: []int{3, 1, -2}})
	for _, msg := range [][]byte{
		plan, commit,
		encodePlan(nil), encodeCommit(commitMsg{Epoch: 1}),
	} {
		f.Add(msg)
		f.Add(msg[:len(msg)-1])                   // truncated
		f.Add(append(msg[:len(msg):len(msg)], 0)) // a trailing byte
	}
	// Counts the bytes do not back, and a commit flag that is not a bool.
	f.Add(patched(plan, func(b []byte) { binary.LittleEndian.PutUint64(b, 1<<60) }))
	f.Add(patched(plan, func(b []byte) { binary.LittleEndian.PutUint64(b, 1) }))
	f.Add(patched(commit, func(b []byte) { binary.LittleEndian.PutUint64(b[9:], 1<<60) }))
	f.Add(patched(commit, func(b []byte) { b[8] = 2 }))
	f.Add([]byte{})
	// An ack: the epoch prefix the state, ack and commit messages share,
	// with nothing behind it.
	f.Add(binary.LittleEndian.AppendUint64(nil, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, perr := decodePlan(data)
		c, cerr := decodeCommit(data)
		runtime.ReadMemStats(&after)
		// A directive is 16 bytes on the wire and in memory, a rank 8 and
		// 8; the slack is the two error values and whatever the fuzz
		// worker's own goroutines allocated meanwhile.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(data))+(64<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if perr == nil && !bytes.Equal(encodePlan(p), data) {
			t.Fatalf("plan %+v decoded from\n%x\nre-encodes to\n%x", p, data, encodePlan(p))
		}
		if cerr == nil && !bytes.Equal(encodeCommit(c), data) {
			t.Fatalf("commit %+v decoded from\n%x\nre-encodes to\n%x", c, data, encodeCommit(c))
		}
	})
}
