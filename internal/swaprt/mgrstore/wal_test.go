package mgrstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/clock"
)

// sampleRecords is a representative mix of every op the manager logs.
func sampleRecords() []*Record {
	return []*Record{
		{Op: OpSpareAssign, Rank: 3},
		{Op: OpEpochPropose, Epoch: 1, Swaps: []Swap{{Out: 0, In: 3}}},
		{Op: OpEpochCommit, Epoch: 1},
		{Op: OpSpareRelease, Rank: 3},
		{Op: OpCircuit, Detail: "open"},
		{Op: OpSpareAssign, Rank: 4},
		{Op: OpEpochPropose, Epoch: 2, Swaps: []Swap{{Out: 3, In: 4}}},
		{Op: OpEpochAbort, Epoch: 2},
		{Op: OpQuarantine, Rank: 4},
		{Op: OpSpareRelease, Rank: 4},
		{Op: OpCircuit, Detail: "closed"},
	}
}

// writeSampleWAL builds a store with the sample records and returns the
// raw WAL bytes plus the expected state after each record count.
func writeSampleWAL(t *testing.T) (wal []byte, states []*State) {
	t.Helper()
	dir := t.TempDir()
	fs, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	st := &State{}
	states = append(states, st.Clone())
	for _, r := range sampleRecords() {
		if err := fs.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
		st.Apply(r)
		states = append(states, st.Clone())
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wal, err = os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatalf("read wal: %v", err)
	}
	return wal, states
}

// frameEnds walks the framed WAL and returns the byte offset at the end
// of each frame.
func frameEnds(t *testing.T, wal []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(wal) {
		_, next, ok := decodeFrame(wal, off)
		if !ok {
			t.Fatalf("reference walk found bad frame at offset %d", off)
		}
		ends = append(ends, next)
		off = next
	}
	return ends
}

// TestWALTruncationEveryOffset mirrors the wire codec's truncation
// tests: the log cut at every possible byte offset must replay exactly
// the records whose frames are complete, stop cleanly at the torn tail,
// and leave the reopened store appendable from the surviving sequence
// number — never an error, never a double-applied or phantom record.
func TestWALTruncationEveryOffset(t *testing.T) {
	wal, states := writeSampleWAL(t)
	ends := frameEnds(t, wal)

	for cut := 0; cut <= len(wal); cut++ {
		// Complete frames within the cut.
		want := 0
		for _, e := range ends {
			if e <= cut {
				want++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal[:cut], 0o644); err != nil {
			t.Fatalf("cut=%d: write: %v", cut, err)
		}
		fs, err := Open(dir, clock.NewFake())
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		st, replayed, err := fs.Load()
		if err != nil {
			t.Fatalf("cut=%d: load: %v", cut, err)
		}
		if replayed != want {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, replayed, want)
		}
		if !reflect.DeepEqual(st, states[want]) {
			t.Fatalf("cut=%d: state %+v, want %+v", cut, st, states[want])
		}
		// The torn tail must be gone from disk so the next append starts
		// on a frame boundary.
		if info, err := os.Stat(filepath.Join(dir, walFile)); err != nil {
			t.Fatalf("cut=%d: stat: %v", cut, err)
		} else if got := int(info.Size()); got != lastOr(ends[:want], 0) {
			t.Fatalf("cut=%d: wal size %d after open, want %d", cut, got, lastOr(ends[:want], 0))
		}
		// And the store must accept new records from the surviving seq.
		if err := fs.Append(&Record{Op: OpCircuit, Detail: "post-recovery"}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		st2, _, _ := fs.Load()
		if st2.Seq != st.Seq+1 {
			t.Fatalf("cut=%d: seq %d after append, want %d", cut, st2.Seq, st.Seq+1)
		}
		fs.Close()
	}
}

// lastOr lets the truncation loop read "end of the last surviving frame"
// without special-casing the empty prefix.
func lastOr(xs []int, def int) int {
	if len(xs) == 0 {
		return def
	}
	return xs[len(xs)-1]
}

// TestWALCorruptMidRecord flips one payload byte in a middle frame:
// replay must stop at the corrupt frame (CRC) even though intact frames
// follow — a mid-file flip is indistinguishable from a tail whose
// successors are garbage riding a stale preallocation.
func TestWALCorruptMidRecord(t *testing.T) {
	wal, states := writeSampleWAL(t)
	ends := frameEnds(t, wal)
	if len(ends) < 3 {
		t.Fatal("need at least 3 frames")
	}
	// Corrupt a payload byte of the third frame.
	corrupt := append([]byte(nil), wal...)
	corrupt[ends[1]+walHeaderLen] ^= 0xff

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer fs.Close()
	st, replayed, _ := fs.Load()
	if replayed != 2 {
		t.Fatalf("replayed %d records past a corrupt frame, want 2", replayed)
	}
	if !reflect.DeepEqual(st, states[2]) {
		t.Fatalf("state %+v, want %+v", st, states[2])
	}
}

// TestSnapshotCorrupt proves a damaged snapshot is refused loudly with
// the typed error instead of silently anchoring wrong history.
func TestSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := fs.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	fs.Close()

	snapPath := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, clock.NewFake()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt snapshot: err=%v, want ErrCorrupt", err)
	}
}

// TestNoDoubleApplyAfterCrashedCompaction simulates a crash between the
// snapshot rename and the WAL truncation: the WAL still holds every
// record the snapshot already folded in. Replay must skip them all (seq
// fencing) — the recovered state equals the snapshot and the replayed
// count is zero.
func TestNoDoubleApplyAfterCrashedCompaction(t *testing.T) {
	dir := t.TempDir()
	fs, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords() {
		if err := fs.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := fs.Load()
	if err := fs.Compact(); err != nil {
		t.Fatal(err)
	}
	fs.Close()

	// Undo the truncation: the snapshot and the full pre-compaction WAL
	// now coexist, exactly as after a crash mid-compaction.
	if err := os.WriteFile(filepath.Join(dir, walFile), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	st, replayed, _ := fs2.Load()
	if replayed != 0 {
		t.Fatalf("replayed %d records the snapshot already covers, want 0", replayed)
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("state %+v, want %+v", st, want)
	}
}

// TestLeaseFileTornWrite proves an unparseable lease file (external
// damage; the writer path is atomic) surfaces as ErrCorrupt rather than
// silently reading as a free lease.
func TestLeaseFileTornWrite(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, leaseFile), []byte(`{"owner":"a",`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadLease(dir, clock.NewFake()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadLease on torn lease: err=%v, want ErrCorrupt", err)
	}
}

// TestBatchAppendMatchesSingleAppends: records handed to one Append get
// the sequence numbers, the file bytes and the replayed state that one
// Append per record gives; a batch torn mid-file replays the records
// whose frames are whole. MemStore agrees.
func TestBatchAppendMatchesSingleAppends(t *testing.T) {
	wal, states := writeSampleWAL(t)
	dir := t.TempDir()
	fs, err := Open(dir, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemStore(clock.NewFake())
	recs := sampleRecords()
	for _, batch := range [][]*Record{recs[:1], recs[1:4], recs[4:5], recs[5:]} {
		if err := fs.Append(batch...); err != nil {
			t.Fatalf("append %d records: %v", len(batch), err)
		}
		if err := mem.Append(batch...); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Append(); err != nil {
		t.Fatalf("empty append: %v", err)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wal) {
		t.Fatalf("batched WAL differs from one append per record:\n%x\n%x", got, wal)
	}
	want := states[len(states)-1]
	if st, _, _ := mem.Load(); !reflect.DeepEqual(st, want) {
		t.Fatalf("mem store state %+v, want %+v", st, want)
	}

	// The batch recs[1:4] cut inside its third frame: its first two
	// records replay.
	ends := frameEnds(t, wal)
	torn := t.TempDir()
	if err := os.WriteFile(filepath.Join(torn, walFile), wal[:ends[3]-2], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(torn, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st, replayed, _ := re.Load()
	if replayed != 3 || !reflect.DeepEqual(st, states[3]) {
		t.Fatalf("torn batch replayed %d records to %+v, want 3 to %+v", replayed, st, states[3])
	}
}
