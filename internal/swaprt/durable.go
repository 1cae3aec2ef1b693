package swaprt

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/swaprt/mgrstore"
)

// OutcomeMsg tells the manager how a proposed swap epoch ended: the
// leader reports it after the two-phase outcome consensus (DESIGN.md
// §13), closing the loop the decision opened. Quarantined lists the
// spares whose swap-in aborted. The report is best-effort on the wire —
// a manager that misses it reconciles from the next DecideRequest's
// epoch instead (epoch fencing), so a lost outcome degrades recovery
// precision, never correctness.
type OutcomeMsg struct {
	Epoch       uint64 `json:"epoch"` // the proposed epoch (current+1 at decide time)
	Committed   bool   `json:"committed"`
	NewSet      []int  `json:"new_set,omitempty"`
	Quarantined []int  `json:"quarantined,omitempty"`
}

// ErrStaleEpoch is returned by DurableDecider.Decide when the request
// carries an epoch older than the durably committed one — the telltale
// of a leader working from pre-crash state, whose decisions must not be
// honored.
var ErrStaleEpoch = errors.New("swaprt: decide request carries a stale epoch")

// DurableDecider wraps a decision core with a mgrstore.Store so every
// decision the manager acks is durable first, and a restarted manager
// resumes from replayed state instead of amnesia:
//
//   - A swap-bearing decision appends an epoch proposal plus one spare
//     assignment per directive, fsynced before the response leaves.
//   - The leader's outcome report appends the commit or abort, the
//     quarantines, and the spare releases.
//   - Each of these steps, and each re-drive below, is one Append: one
//     write and one fsync, and the mirror moves only once it succeeded.
//   - Restart recovery is epoch fencing at the next Decide: a request
//     below the durable epoch is rejected (ErrStaleEpoch); a request at
//     or above a pending proposal's epoch proves the ranks adopted it
//     (re-driven to commit); a request below it proves they did not
//     (re-driven to abort, spares released).
//   - Durably quarantined ranks are filtered out of the spare pool
//     before the inner decider ever sees them, so a crash cannot
//     resurrect a spare that already failed a swap-in.
//
// Report and Ping are Forward's. Safe for concurrent use; decisions
// serialize on one mutex (the manager protocol is one leader anyway).
type DurableDecider struct {
	Forward
	store mgrstore.Store
	logf  func(string, ...any)

	mu       sync.Mutex
	st       *mgrstore.State
	replayed int
}

// NewDurableDecider loads the store (replaying snapshot+WAL) and wraps
// inner. logf may be nil.
func NewDurableDecider(inner Decider, store mgrstore.Store, logf func(string, ...any)) (*DurableDecider, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	st, replayed, err := store.Load()
	if err != nil {
		return nil, err
	}
	return &DurableDecider{Forward: Forward{Next: inner}, store: store, logf: logf, st: st, replayed: replayed}, nil
}

// Replayed reports how many WAL records the store replayed on top of its
// snapshot when this decider loaded — the restart-recovery evidence the
// supervisor stamps into the MgrRecover trace event.
func (d *DurableDecider) Replayed() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replayed
}

// DurableState returns a copy of the replayed state (tests, evidence).
func (d *DurableDecider) DurableState() *mgrstore.State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.st.Clone()
}

// append makes one step's records durable together — one write and one
// fsync on a FileStore — and only then folds them into the live mirror.
// Caller holds d.mu.
func (d *DurableDecider) append(rs ...*mgrstore.Record) error {
	if err := d.store.Append(rs...); err != nil {
		return fmt.Errorf("swaprt: durable decider: %w", err)
	}
	for _, r := range rs {
		d.st.Apply(r)
	}
	return nil
}

// Decide implements Decider: fence the epoch, reconcile any in-flight
// proposal, filter durably quarantined spares, consult the inner
// decider, and make the proposal durable before acking it.
func (d *DurableDecider) Decide(req DecideRequest) (DecideResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if req.Epoch < d.st.Epoch {
		return DecideResponse{}, fmt.Errorf(
			"request epoch %d < committed epoch %d: %w", req.Epoch, d.st.Epoch, ErrStaleEpoch)
	}
	if req.Epoch > d.st.Epoch {
		// The ranks committed an epoch whose outcome report never arrived
		// (typically: we crashed in between). The request is the proof;
		// adopt it durably. The commit also closes a pending proposal at
		// or below the observed epoch — that is the re-drive to commit.
		pending := d.st.Pending
		step := []*mgrstore.Record{{Op: mgrstore.OpEpochCommit, Epoch: req.Epoch,
			Detail: "observed from leader after recovery"}}
		redrive := pending != nil && pending.Epoch <= req.Epoch
		if redrive {
			step = releases(step, pending.Swaps)
		}
		if err := d.append(step...); err != nil {
			return DecideResponse{}, err
		}
		if redrive {
			d.logf("swapmgr: re-drove pending epoch %d to commit (leader at %d)", pending.Epoch, req.Epoch)
		}
	}
	if p := d.st.Pending; p != nil && p.Epoch > req.Epoch {
		// The proposal never took: the leader still runs the old epoch.
		// Re-drive to abort and return the claimed spares to the pool. No
		// quarantine — an abort the leader observed arrives via
		// ReportOutcome with the failed spares named; this path only fires
		// when the proposal died with the manager.
		d.logf("swapmgr: re-drove pending epoch %d to abort (leader at %d)", p.Epoch, req.Epoch)
		step := releases([]*mgrstore.Record{{Op: mgrstore.OpEpochAbort, Epoch: p.Epoch,
			Detail: "re-driven after recovery"}}, p.Swaps)
		if err := d.append(step...); err != nil {
			return DecideResponse{}, err
		}
	}

	// Filter the spare pool through the durable quarantine and the
	// currently assigned set: the in-process manager does the same from
	// its own memory, but its memory did not survive the crash — this
	// filter is the one that cannot forget.
	fr := req
	fr.SpareSet, fr.SpareRates = nil, nil
	for i, r := range req.SpareSet {
		if d.st.IsQuarantined(r) || intInSorted(d.st.Assigned, r) {
			continue
		}
		fr.SpareSet = append(fr.SpareSet, r)
		fr.SpareRates = append(fr.SpareRates, req.SpareRates[i])
	}

	resp, err := d.Next.Decide(fr)
	if err != nil {
		return DecideResponse{}, err
	}
	if len(resp.Swaps) == 0 {
		return resp, nil
	}

	// Durability before ack: the proposal record first (it is the one a
	// re-drive reconstructs everything from), then the assignments, in
	// one append.
	swaps := make([]mgrstore.Swap, len(resp.Swaps))
	for i, sw := range resp.Swaps {
		swaps[i] = mgrstore.Swap{Out: sw.Out, In: sw.In}
	}
	step := append(make([]*mgrstore.Record, 0, 1+len(swaps)),
		&mgrstore.Record{Op: mgrstore.OpEpochPropose, Epoch: req.Epoch + 1, Swaps: swaps})
	for _, sw := range swaps {
		step = append(step, &mgrstore.Record{Op: mgrstore.OpSpareAssign, Rank: sw.In})
	}
	if err := d.append(step...); err != nil {
		return DecideResponse{}, err
	}
	return resp, nil
}

// releases appends one spare-release record per directive to step.
func releases(step []*mgrstore.Record, swaps []mgrstore.Swap) []*mgrstore.Record {
	for _, sw := range swaps {
		step = append(step, &mgrstore.Record{Op: mgrstore.OpSpareRelease, Rank: sw.In})
	}
	return step
}

// ReportOutcome implements Decider: the leader's verdict becomes the
// durable commit or abort, the failed spares' quarantines, and the
// releases that return the proposal's spares to the pool, in one
// append — and then goes on to the wrapped decider.
func (d *DurableDecider) ReportOutcome(o OutcomeMsg) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	pending := d.st.Pending
	op := mgrstore.OpEpochAbort
	if o.Committed {
		op = mgrstore.OpEpochCommit
	}
	step := []*mgrstore.Record{{Op: op, Epoch: o.Epoch, Detail: "leader outcome"}}
	for _, q := range o.Quarantined {
		step = append(step, &mgrstore.Record{Op: mgrstore.OpQuarantine, Rank: q})
	}
	if pending != nil && pending.Epoch == o.Epoch {
		step = releases(step, pending.Swaps)
	}
	if err := d.append(step...); err != nil {
		return err
	}
	return d.Next.ReportOutcome(o)
}

// RecordCircuit durably logs the decision path's circuit-breaker
// position (wired to ResilientDecider.OnCircuit by the harness).
func (d *DurableDecider) RecordCircuit(transition string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.append(&mgrstore.Record{Op: mgrstore.OpCircuit, Detail: transition})
}

// intInSorted reports whether x is in the sorted slice xs.
func intInSorted(xs []int, x int) bool {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case xs[mid] == x:
			return true
		case xs[mid] < x:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}
