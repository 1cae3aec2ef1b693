package mgrstore

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/clock"
)

// FuzzStoreOpen feeds arbitrary bytes to a restarting manager as its WAL
// and snapshot files. Open must refuse them with an error or replay
// them, never panic, and spend memory in proportion to what it read; a
// store it accepts must compact, reopen and load to the same State.
// An empty snapshot input means no snapshot file.
func FuzzStoreOpen(f *testing.F) {
	var wal []byte
	for _, r := range sampleRecords() {
		frame, err := appendRecordFrame(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		wal = append(wal, frame...)
	}
	snap, err := encodeSnapshot(&State{Seq: 2, Epoch: 1, Quarantined: []int{4}, Circuit: "open"})
	if err != nil {
		f.Fatal(err)
	}
	first, _ := appendRecordFrame(nil, sampleRecords()[0])
	badCRC := append([]byte(nil), first...)
	badCRC[4] ^= 0xff
	lying := append([]byte(nil), first...)
	binary.BigEndian.PutUint32(lying, maxWALRecord)

	f.Add(wal, []byte(nil))       // valid records
	f.Add(wal, snap)              // valid records over a snapshot that covers some
	f.Add(wal[:len(wal)-3], snap) // a truncated frame
	f.Add(badCRC, []byte(nil))    // a bad CRC
	f.Add(lying, []byte(nil))     // a lying length
	f.Add([]byte(nil), lying)     // ... in the snapshot
	f.Add([]byte(nil), snap[:9])  // a truncated snapshot
	f.Fuzz(func(t *testing.T, wal, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir, clock.Real{})
		var st *State
		if err == nil {
			st, _, err = s.Load()
		}
		runtime.ReadMemStats(&after)
		// JSON costs a few words per input byte; the files and the
		// decoders a fixed amount.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(wal)+len(snap))+(256<<10); alloc > bound {
			t.Fatalf("Open+Load of %d+%d bytes allocated %d bytes, bound %d", len(wal), len(snap), alloc, bound)
		}
		if err != nil {
			return
		}
		defer s.Close()

		if err := s.Compact(); err != nil {
			t.Fatalf("compact an accepted store: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := Open(dir, clock.Real{})
		if err != nil {
			t.Fatalf("reopen after compact: %v", err)
		}
		defer re.Close()
		got, _, err := re.Load()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("state changed across compact and reopen:\n got %+v\nwant %+v", got, st)
		}
	})
}
