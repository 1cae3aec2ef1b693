// Package mgrstore is the swap manager's durable memory: an append-only
// write-ahead log of every decision the manager must not forget across a
// crash — swap-epoch proposals and their commit/abort outcomes, spare
// assignments and releases, quarantines, and circuit-breaker state — plus
// a leader lease that lets a standby manager take over when the incumbent
// stops renewing.
//
// Two backends implement the same Store contract. MemStore keeps
// everything in memory (tests, and runs that accept losing the manager's
// memory with the process). FileStore persists to a directory:
//
//	wal.log       length-prefixed, CRC-checksummed records (see wal.go)
//	snapshot.json one framed State snapshot written by Compact
//	lease.json    the current leader lease, atomically replaced
//
// Append is durable-before-return: the records are written and fsynced
// before the call comes back, so a manager that acked a decision can
// always replay it. Load replays snapshot+WAL and tolerates a torn tail
// (a crash mid-append): replay stops cleanly at the first incomplete or
// corrupt frame and the tail is truncated so later appends never
// interleave with garbage. Records carry sequence numbers and the
// snapshot records the last sequence it folded in, so a crash between
// snapshot rename and WAL truncation never double-applies a record.
//
// The lease runs on an injected clock.Clock: expiry is a comparison
// against the store clock's Now, which makes failover timing exact (and
// testable to the nanosecond) on a fake clock.
package mgrstore

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Op enumerates the durable manager transitions a Record can carry.
type Op uint8

const (
	// OpEpochPropose opens a two-phase swap: Epoch is the proposed new
	// epoch (current+1) and Swaps the directives. At most one proposal is
	// in flight at a time.
	OpEpochPropose Op = iota + 1
	// OpEpochCommit advances the committed epoch to Epoch and clears any
	// proposal at or below it.
	OpEpochCommit
	// OpEpochAbort closes the proposal for Epoch without advancing.
	OpEpochAbort
	// OpQuarantine permanently excludes Rank from the spare pool.
	OpQuarantine
	// OpSpareAssign marks Rank as claimed by an in-flight swap.
	OpSpareAssign
	// OpSpareRelease returns Rank to the pool after commit or abort.
	OpSpareRelease
	// OpCircuit records a transition of the decision path's circuit
	// breaker in Detail ("open" or "close", plus the reason).
	OpCircuit
)

var opNames = [...]string{
	OpEpochPropose: "epoch-propose",
	OpEpochCommit:  "epoch-commit",
	OpEpochAbort:   "epoch-abort",
	OpQuarantine:   "quarantine",
	OpSpareAssign:  "spare-assign",
	OpSpareRelease: "spare-release",
	OpCircuit:      "circuit",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Swap mirrors one swap directive (world ranks). mgrstore keeps its own
// copy of the pair so the store does not depend on the runtime package.
type Swap struct {
	Out int `json:"out"`
	In  int `json:"in"`
}

// Record is one WAL entry. Seq is assigned by Append and is strictly
// increasing; replay is idempotent because the snapshot remembers the
// last sequence it absorbed.
type Record struct {
	Seq    uint64 `json:"seq"`
	Op     Op     `json:"op"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Rank   int    `json:"rank,omitempty"`
	Swaps  []Swap `json:"swaps,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// Proposal is an in-flight two-phase swap recorded by OpEpochPropose and
// still awaiting its outcome.
type Proposal struct {
	Epoch uint64 `json:"epoch"`
	Swaps []Swap `json:"swaps"`
}

// State is the manager's replayed durable state: what a restarted
// manager knows before it talks to a single rank.
type State struct {
	// Seq is the sequence number of the last applied record.
	Seq uint64 `json:"seq"`
	// Epoch is the last committed swap epoch.
	Epoch uint64 `json:"epoch"`
	// Pending is the in-flight proposal, if a crash interrupted one.
	Pending *Proposal `json:"pending,omitempty"`
	// Quarantined ranks are permanently excluded from the spare pool.
	// Sorted.
	Quarantined []int `json:"quarantined,omitempty"`
	// Assigned ranks are claimed by the pending proposal. Sorted.
	Assigned []int `json:"assigned,omitempty"`
	// Circuit is the last recorded circuit-breaker position.
	Circuit string `json:"circuit,omitempty"`
}

// Apply folds one record into the state. It is the single replay rule:
// both backends and the snapshot path share it, so disk replay and live
// bookkeeping cannot drift apart.
func (s *State) Apply(r *Record) {
	s.Seq = r.Seq
	switch r.Op {
	case OpEpochPropose:
		s.Pending = &Proposal{Epoch: r.Epoch, Swaps: append([]Swap(nil), r.Swaps...)}
	case OpEpochCommit:
		if r.Epoch > s.Epoch {
			s.Epoch = r.Epoch
		}
		if s.Pending != nil && s.Pending.Epoch <= r.Epoch {
			s.Pending = nil
		}
	case OpEpochAbort:
		if s.Pending != nil && s.Pending.Epoch == r.Epoch {
			s.Pending = nil
		}
	case OpQuarantine:
		s.Quarantined = insertSorted(s.Quarantined, r.Rank)
	case OpSpareAssign:
		s.Assigned = insertSorted(s.Assigned, r.Rank)
	case OpSpareRelease:
		s.Assigned = removeSorted(s.Assigned, r.Rank)
	case OpCircuit:
		s.Circuit = r.Detail
	}
}

// Clone deep-copies the state so callers can hold it without racing the
// store's live copy.
func (s *State) Clone() *State {
	out := *s
	out.Quarantined = append([]int(nil), s.Quarantined...)
	out.Assigned = append([]int(nil), s.Assigned...)
	if s.Pending != nil {
		p := Proposal{Epoch: s.Pending.Epoch, Swaps: append([]Swap(nil), s.Pending.Swaps...)}
		out.Pending = &p
	}
	return &out
}

// IsQuarantined reports whether rank is quarantined.
func (s *State) IsQuarantined(rank int) bool {
	i := sort.SearchInts(s.Quarantined, rank)
	return i < len(s.Quarantined) && s.Quarantined[i] == rank
}

func insertSorted(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	if i < len(xs) && xs[i] == x {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

func removeSorted(xs []int, x int) []int {
	i := sort.SearchInts(xs, x)
	if i < len(xs) && xs[i] == x {
		return append(xs[:i], xs[i+1:]...)
	}
	return xs
}

// Lease is the leader lease held in the store. Seq is a fencing token:
// it increases on every acquisition, so a fenced-out incumbent can tell
// its lease was superseded rather than merely renewed.
type Lease struct {
	Owner   string    `json:"owner"`
	Addr    string    `json:"addr,omitempty"`
	Expires time.Time `json:"expires"`
	Seq     uint64    `json:"seq"`
}

// ErrLeaseHeld is returned by AcquireLease while another live owner
// holds the lease.
var ErrLeaseHeld = errors.New("mgrstore: lease held by another owner")

// ErrCorrupt marks a store artifact (snapshot, checkpoint) whose
// checksum or framing failed verification. A torn WAL tail is NOT
// corruption — replay tolerates it — but a bad snapshot is: the state it
// anchors cannot be trusted, so Load fails loudly instead of serving
// wrong history.
var ErrCorrupt = errors.New("mgrstore: corrupt store artifact")

// Store is the manager's durability contract.
//
// Append assigns each record its sequence number, in order, and makes
// them durable before returning: after Append comes back, a
// crash-and-replay sees every one of them. Records handed over together
// are written together (one write and one fsync on a FileStore), each
// in its own frame, so a crash mid-call replays a prefix of them. Load returns the replayed state plus the number of WAL records
// replayed on top of the snapshot (recovery evidence for traces and
// tests). Compact folds the current state into a snapshot and truncates
// the WAL.
//
// The lease methods serialize leader takeover. AcquireLease succeeds
// when the lease is free, expired on the store's clock, or already held
// by owner (renewal); it refuses with ErrLeaseHeld otherwise.
// Implementations must be safe for concurrent use.
type Store interface {
	Append(rs ...*Record) error
	Load() (*State, int, error)
	Compact() error
	AcquireLease(owner, addr string, ttl time.Duration) (Lease, error)
	ReleaseLease(owner string) error
	CurrentLease() (Lease, bool, error)
	Close() error
}
