package mgrstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
)

// FileStore is the durable Store: a directory holding
//
//	wal.log       the append-only record log (framed, see wal.go)
//	snapshot.json one framed State snapshot (Compact)
//	lease.json    the leader lease, atomically replaced
//
// Append writes and fsyncs its frames before returning, so an acked
// decision survives any later crash. The in-memory state mirror is
// updated under the store mutex, but the fsync itself runs outside it
// (concurrent Syncs on one *os.File are safe, and each append's Sync
// happens after its own write) — holding a lock across an fsync would
// stall every other append for a disk round trip, and swapvet's lockedio
// rule rejects the shape outright.
type FileStore struct {
	// CompactEvery triggers an automatic Compact once this many records
	// accumulate in the WAL since the last snapshot. 0 selects 1024;
	// negative disables auto-compaction. Set before the first Append.
	CompactEvery int

	dir string
	clk clock.Clock

	mu         sync.Mutex
	wal        *os.File
	buf        []byte // an append's frames, call to call
	st         State
	walRecords int
	replayed   int
	compacting bool
	closed     bool
}

const (
	walFile      = "wal.log"
	snapshotFile = "snapshot.json"
	leaseFile    = "lease.json"
)

// Open loads (or creates) the store directory: snapshot first, then the
// WAL replayed on top, with any torn tail truncated away so future
// appends never interleave with garbage. clk drives lease expiry; nil
// means clock.Real. A corrupt snapshot fails with ErrCorrupt — unlike a
// torn WAL tail it cannot be skipped, because the history it replaced is
// gone.
func Open(dir string, clk clock.Clock) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mgrstore: create dir: %w", err)
	}
	f := &FileStore{dir: dir, clk: clock.Or(clk)}

	if data, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		st, derr := decodeSnapshot(data)
		if derr != nil {
			return nil, derr
		}
		f.st = *st
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("mgrstore: read snapshot: %w", err)
	}

	walPath := filepath.Join(dir, walFile)
	data, err := os.ReadFile(walPath)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("mgrstore: read wal: %w", err)
	}
	applied, validLen := replayWAL(data, &f.st, f.st.Seq)
	if validLen < len(data) {
		// Torn tail from a crashed append: cut it before reopening for
		// append, or the next frame would begin mid-garbage.
		if err := os.Truncate(walPath, int64(validLen)); err != nil {
			return nil, fmt.Errorf("mgrstore: truncate torn wal tail: %w", err)
		}
	}
	f.replayed = applied
	f.walRecords = applied

	f.wal, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("mgrstore: open wal: %w", err)
	}
	return f, nil
}

// Dir reports the store directory.
func (f *FileStore) Dir() string { return f.dir }

func (f *FileStore) compactEvery() int {
	if f.CompactEvery == 0 {
		return 1024
	}
	return f.CompactEvery
}

// Append implements Store: assign the sequence numbers, frame the
// records into one buffer, write it once, fsync once, then return. The
// write happens under the mutex (frames must stay contiguous); the
// fsync happens outside it, after this call's write, which still orders
// durability correctly.
func (f *FileStore) Append(rs ...*Record) error {
	if len(rs) == 0 {
		return nil
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return fmt.Errorf("mgrstore: append on closed store")
	}
	buf := f.buf[:0]
	for i, r := range rs {
		r.Seq = f.st.Seq + 1 + uint64(i)
		var err error
		if buf, err = appendRecordFrame(buf, r); err != nil {
			f.mu.Unlock()
			return err
		}
	}
	f.buf = buf
	if _, err := f.wal.Write(buf); err != nil {
		f.mu.Unlock()
		return fmt.Errorf("mgrstore: append wal: %w", err)
	}
	for _, r := range rs {
		f.st.Apply(r)
	}
	f.walRecords += len(rs)
	wal, due := f.wal, f.walRecords >= f.compactEvery() && f.compactEvery() > 0
	f.mu.Unlock()

	if err := wal.Sync(); err != nil {
		return fmt.Errorf("mgrstore: sync wal: %w", err)
	}
	if due {
		return f.Compact()
	}
	return nil
}

// Load implements Store: the replayed state plus the number of WAL
// records replayed on top of the snapshot at Open (recovery evidence).
func (f *FileStore) Load() (*State, int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st.Clone(), f.replayed, nil
}

// Compact implements Store: fold the current state into the snapshot
// file (temp + fsync + atomic rename + directory fsync), then reclaim
// the WAL. Records appended while the snapshot was being written are
// preserved: the WAL is only truncated when nothing arrived in between —
// replay skips records the snapshot already covers (seq fencing), so a
// skipped truncation costs space, never correctness. One compaction runs
// at a time; a call that finds one in flight returns immediately (two
// interleaved snapshot renames could land out of sequence order, and the
// later-renamed, older snapshot would then disagree with a WAL the other
// compactor truncated).
func (f *FileStore) Compact() error {
	f.mu.Lock()
	if f.compacting || f.closed {
		f.mu.Unlock()
		return nil
	}
	f.compacting = true
	snap := f.st.Clone()
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.compacting = false
		f.mu.Unlock()
	}()

	data, err := encodeSnapshot(snap)
	if err != nil {
		return err
	}
	if err := WriteFileDurable(filepath.Join(f.dir, snapshotFile), data); err != nil {
		return err
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	if f.st.Seq == snap.Seq {
		if err := f.wal.Truncate(0); err != nil {
			return fmt.Errorf("mgrstore: truncate wal after snapshot: %w", err)
		}
		f.walRecords = 0
	} else {
		// Concurrent appends landed mid-compaction; they stay in the WAL
		// and the next compaction folds them.
		f.walRecords = int(f.st.Seq - snap.Seq)
	}
	return nil
}

// AcquireLease implements Store. The lease file is replaced atomically
// (temp + fsync + rename) and then re-read to verify the write won: two
// racing acquirers can both see the lease free, but only the rename that
// lands last survives, and the loser's verify read tells it so. Renewal
// (same owner) is always legal; takeover by a new owner is legal from
// the exact expiry instant on the store clock.
func (f *FileStore) AcquireLease(owner, addr string, ttl time.Duration) (Lease, error) {
	cur, held, err := readLease(f.dir, f.clk)
	if err != nil {
		return Lease{}, err
	}
	if held && cur.Owner != owner {
		return Lease{}, fmt.Errorf("mgrstore: lease wanted by %q held by %q until %s: %w",
			owner, cur.Owner, cur.Expires.Format(time.RFC3339Nano), ErrLeaseHeld)
	}
	nl := Lease{Owner: owner, Addr: addr, Expires: f.clk.Now().Add(ttl), Seq: cur.Seq + 1}
	if err := f.writeLease(nl); err != nil {
		return Lease{}, err
	}
	got, _, err := readLease(f.dir, f.clk)
	if err != nil {
		return Lease{}, err
	}
	if got.Owner != owner {
		return Lease{}, fmt.Errorf("mgrstore: lease lost to %q at acquire: %w", got.Owner, ErrLeaseHeld)
	}
	return got, nil
}

// AwaitLease acquires the lease for owner, waiting out a live holder the
// way a standby does: while the lease is held elsewhere it sleeps ttl/4
// on the store clock — so takeover lands within a bounded slice of the
// expiry instant — and tries again if standby() still says to. Any
// other acquire failure, or standby() returning false, ends the wait
// with the last error. standby runs right before the retry, so a caller
// that gave up during the sleep never takes the lease.
func (f *FileStore) AwaitLease(owner, addr string, ttl time.Duration, standby func() bool) error {
	for {
		_, err := f.AcquireLease(owner, addr, ttl)
		if !errors.Is(err, ErrLeaseHeld) {
			return err
		}
		f.clk.Sleep(ttl / 4)
		if !standby() {
			return err
		}
	}
}

// KeepLease renews owner's lease ttl/3 after each renewal on the store
// clock until stop closes (nil) or a renewal fails (that error): a lost
// or superseded lease means another incarnation fenced this one out, and
// the caller must stop serving, not contest the new leader. A renewal
// may be in flight when stop closes: ReleaseLease is final only after
// KeepLease has returned.
func (f *FileStore) KeepLease(owner, addr string, ttl time.Duration, stop <-chan struct{}) error {
	for {
		due := make(chan struct{})
		t := f.clk.AfterFunc(ttl/3, func() { close(due) })
		select {
		case <-stop:
			t.Stop()
			return nil
		case <-due:
		}
		select {
		case <-stop: // a renewal that was due when stop closed renews nothing
			return nil
		default:
		}
		if _, err := f.AcquireLease(owner, addr, ttl); err != nil {
			return err
		}
	}
}

// ReleaseLease implements Store: the owner expires its own lease in
// place, opening the door for an immediate takeover.
func (f *FileStore) ReleaseLease(owner string) error {
	cur, _, err := readLease(f.dir, f.clk)
	if err != nil || cur.Owner != owner {
		return err
	}
	cur.Expires = f.clk.Now()
	cur.Seq++
	return f.writeLease(cur)
}

// CurrentLease implements Store: a non-acquiring read. The bool reports
// whether the lease is held and unexpired on the store clock.
func (f *FileStore) CurrentLease() (Lease, bool, error) {
	return readLease(f.dir, f.clk)
}

func (f *FileStore) writeLease(l Lease) error {
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("mgrstore: encode lease: %w", err)
	}
	return WriteFileDurable(filepath.Join(f.dir, leaseFile), data)
}

// ReadLease reads the lease in a store directory without opening the
// store — a standby or a client resolving the current leader peeks at
// the lease, it does not own the WAL. The bool reports held-and-unexpired
// on clk.
func ReadLease(dir string, clk clock.Clock) (Lease, bool, error) {
	return readLease(dir, clock.Or(clk))
}

func readLease(dir string, clk clock.Clock) (Lease, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, leaseFile))
	if errors.Is(err, fs.ErrNotExist) {
		return Lease{}, false, nil
	}
	if err != nil {
		return Lease{}, false, fmt.Errorf("mgrstore: read lease: %w", err)
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		// The lease is written via atomic rename, so a torn file means
		// external interference, not a crashed writer.
		return Lease{}, false, fmt.Errorf("mgrstore: lease body: %v: %w", err, ErrCorrupt)
	}
	return l, l.Expires.After(clk.Now()), nil
}

// Close implements Store: close the WAL handle. No compaction, no lease
// release — Close must be safe to call on the crash path, where doing
// either would mask the very recovery being tested. Graceful shutdown
// calls Compact and ReleaseLease explicitly first.
func (f *FileStore) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return f.wal.Close()
}

// WriteFileDurable replaces path with data so that a crash leaves the
// old content or the new, never a torn mix, and loses neither once it
// returns: it writes a temp file in the same directory, fsyncs it,
// renames it into place and fsyncs the directory entry.
func WriteFileDurable(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("mgrstore: create temp for %s: %w", base, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("mgrstore: write %s: %w", base, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("mgrstore: sync %s: %w", base, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mgrstore: close %s: %w", base, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("mgrstore: rename %s: %w", base, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("mgrstore: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("mgrstore: sync dir: %w", err)
	}
	return nil
}
