package mgrstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
)

// MemStore is the in-memory Store: full contract, no durability. It
// backs tests and runs that accept losing the manager's memory with the
// process, and is the reference implementation the FileStore must agree
// with (the shared State.Apply makes that structural).
type MemStore struct {
	clk clock.Clock

	mu      sync.Mutex
	st      State
	applied int // records appended since construction
	lease   Lease
	held    bool
	closed  bool
}

// NewMemStore builds an empty in-memory store. clk drives lease expiry;
// nil means clock.Real.
func NewMemStore(clk clock.Clock) *MemStore {
	return &MemStore{clk: clock.Or(clk)}
}

// Append implements Store.
func (m *MemStore) Append(rs ...*Record) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("mgrstore: append on closed store")
	}
	for _, r := range rs {
		r.Seq = m.st.Seq + 1
		m.st.Apply(r)
		m.applied++
	}
	return nil
}

// Load implements Store.
func (m *MemStore) Load() (*State, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st.Clone(), m.applied, nil
}

// Compact implements Store: memory has no log to fold, so it only resets
// the replay counter (mirroring the FileStore, whose Load counts records
// since the last snapshot).
func (m *MemStore) Compact() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applied = 0
	return nil
}

// AcquireLease implements Store. A held, unexpired lease is renewed for
// its owner and refused for anyone else; takeover is legal at the exact
// expiry instant on the store clock.
func (m *MemStore) AcquireLease(owner, addr string, ttl time.Duration) (Lease, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.clk.Now()
	if m.held && m.lease.Owner != owner && m.lease.Expires.After(now) {
		return Lease{}, fmt.Errorf("mgrstore: lease %q held by %q until %s: %w",
			owner, m.lease.Owner, m.lease.Expires.Format(time.RFC3339Nano), ErrLeaseHeld)
	}
	m.lease = Lease{Owner: owner, Addr: addr, Expires: now.Add(ttl), Seq: m.lease.Seq + 1}
	m.held = true
	return m.lease, nil
}

// ReleaseLease implements Store: only the current owner can release.
func (m *MemStore) ReleaseLease(owner string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.held && m.lease.Owner == owner {
		m.held = false
	}
	return nil
}

// CurrentLease implements Store: a non-acquiring read. The bool reports
// whether the lease is held and unexpired on the store clock.
func (m *MemStore) CurrentLease() (Lease, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.held || !m.lease.Expires.After(m.clk.Now()) {
		return m.lease, false, nil
	}
	return m.lease, true, nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	return nil
}
