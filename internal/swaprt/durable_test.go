package swaprt

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/clock"
	"repro/internal/swaprt/mgrstore"
)

// scriptDecider answers every Decide with a fixed response and records
// the (filtered) requests it was shown.
type scriptDecider struct {
	StayDecider
	resp DecideResponse
	reqs []DecideRequest
}

func (d *scriptDecider) Decide(req DecideRequest) (DecideResponse, error) {
	d.reqs = append(d.reqs, req)
	return d.resp, nil
}

func (d *scriptDecider) lastSpares(t *testing.T) []int {
	t.Helper()
	if len(d.reqs) == 0 {
		t.Fatal("inner decider never consulted")
	}
	return d.reqs[len(d.reqs)-1].SpareSet
}

func decideReq(epoch uint64, spares ...int) DecideRequest {
	rates := make([]float64, len(spares))
	for i := range rates {
		rates[i] = 1000
	}
	return DecideRequest{
		Epoch:       epoch,
		ActiveSet:   []int{0, 1},
		ActiveRates: []float64{100, 100},
		SpareSet:    spares,
		SpareRates:  rates,
		IterTime:    1,
		SwapTime:    0.1,
	}
}

func TestDurableProposalPersistsBeforeAck(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 2}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := d.Decide(decideReq(0, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Swaps) != 1 || resp.Swaps[0] != (SwapDirective{Out: 0, In: 2}) {
		t.Fatalf("swaps = %v", resp.Swaps)
	}
	st := d.DurableState()
	if st.Pending == nil || st.Pending.Epoch != 1 {
		t.Fatalf("pending = %+v, want proposal at epoch 1", st.Pending)
	}
	if !reflect.DeepEqual(st.Pending.Swaps, []mgrstore.Swap{{Out: 0, In: 2}}) {
		t.Errorf("pending swaps = %v", st.Pending.Swaps)
	}
	if !reflect.DeepEqual(st.Assigned, []int{2}) {
		t.Errorf("assigned = %v, want [2]", st.Assigned)
	}

	// A second decide from a leader still at the old epoch is the proof
	// the proposal never took (a live leader reports the outcome before
	// asking again): the decider re-drives it to abort and the spare is
	// back in the pool for the fresh decision.
	if _, err := d.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := inner.lastSpares(t); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("inner saw spares %v, want [2 3] (pending proposal re-driven to abort)", got)
	}
	if st := d.DurableState(); st.Pending == nil || st.Pending.Epoch != 1 {
		t.Errorf("pending = %+v, want the re-proposed epoch-1 swap", st.Pending)
	}
}

func TestDurableStaleEpochRejected(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 2}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(decideReq(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.ReportOutcome(OutcomeMsg{Epoch: 1, Committed: true, NewSet: []int{2, 1}}); err != nil {
		t.Fatal(err)
	}
	// A leader still at epoch 0 after the durable commit of epoch 1 is
	// working from pre-crash state; its decisions must be refused.
	if _, err := d.Decide(decideReq(0, 3)); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("decide at stale epoch: err = %v, want ErrStaleEpoch", err)
	}
}

// TestDurableAdoptionAfterCrash drives the recovery path where the swap
// committed on the ranks but the manager crashed before hearing the
// outcome: the restarted manager sees the leader's higher epoch, adopts
// it durably, and re-drives its pending proposal to commit.
func TestDurableAdoptionAfterCrash(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 2}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}

	// "Crash": a fresh decider over the same store, losing all in-memory
	// context. The pending proposal and the assignment survive.
	inner2 := &scriptDecider{}
	d2, err := NewDurableDecider(inner2, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	st := d2.DurableState()
	if st.Pending == nil || !reflect.DeepEqual(st.Assigned, []int{2}) {
		t.Fatalf("recovered state lost the proposal: %+v", st)
	}

	// The leader shows up at epoch 1: the proposal took. Adopt + release.
	if _, err := d2.Decide(decideReq(1, 3)); err != nil {
		t.Fatal(err)
	}
	st = d2.DurableState()
	if st.Epoch != 1 || st.Pending != nil || len(st.Assigned) != 0 {
		t.Errorf("after adoption: epoch=%d pending=%+v assigned=%v, want 1/nil/[]",
			st.Epoch, st.Pending, st.Assigned)
	}
}

// TestDurableRedriveAbortAfterCrash drives the opposite recovery: the
// proposal died with the manager (the leader never heard it), so the
// restarted manager re-drives it to abort and returns the spare to the
// pool — without quarantining it, since it never failed anything.
func TestDurableRedriveAbortAfterCrash(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 2}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}

	inner2 := &scriptDecider{}
	d2, err := NewDurableDecider(inner2, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	// Leader still at epoch 0: the proposal never reached the ranks.
	if _, err := d2.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	st := d2.DurableState()
	if st.Epoch != 0 || st.Pending != nil || len(st.Assigned) != 0 || len(st.Quarantined) != 0 {
		t.Errorf("after re-driven abort: %+v, want epoch 0, nothing pending/assigned/quarantined", st)
	}
	if got := inner2.lastSpares(t); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("inner saw spares %v, want [2 3] (spare released by the abort)", got)
	}
}

func TestDurableQuarantineSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	store, err := mgrstore.Open(dir, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 3}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// The swap-in to 3 failed: aborted, 3 quarantined.
	if err := d.ReportOutcome(OutcomeMsg{Epoch: 1, Committed: false, Quarantined: []int{3}}); err != nil {
		t.Fatal(err)
	}
	// Crash without compaction or clean close.
	store.Close()

	store2, err := mgrstore.Open(dir, clock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	inner2 := &scriptDecider{}
	d2, err := NewDurableDecider(inner2, store2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Replayed() == 0 {
		t.Error("Replayed() = 0, want WAL records replayed after crash")
	}
	st := d2.DurableState()
	if !st.IsQuarantined(3) {
		t.Fatalf("quarantine of 3 lost across crash: %+v", st)
	}
	if _, err := d2.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := inner2.lastSpares(t); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("inner saw spares %v, want [2] (3 durably quarantined)", got)
	}
}

func TestDurableOutcomeCommitReleasesAndQuarantines(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	inner := &scriptDecider{resp: DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 2}, {Out: 1, In: 3}}}}
	d, err := NewDurableDecider(inner, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Decide(decideReq(0, 2, 3)); err != nil {
		t.Fatal(err)
	}
	// Partial outcome: the epoch committed, but 3's swap-in failed.
	if err := d.ReportOutcome(OutcomeMsg{Epoch: 1, Committed: true, NewSet: []int{2, 1}, Quarantined: []int{3}}); err != nil {
		t.Fatal(err)
	}
	st := d.DurableState()
	if st.Epoch != 1 || st.Pending != nil {
		t.Errorf("epoch=%d pending=%+v, want 1/nil", st.Epoch, st.Pending)
	}
	if len(st.Assigned) != 0 {
		t.Errorf("assigned = %v, want released", st.Assigned)
	}
	if !reflect.DeepEqual(st.Quarantined, []int{3}) {
		t.Errorf("quarantined = %v, want [3]", st.Quarantined)
	}
}

func TestDurableRecordCircuit(t *testing.T) {
	store := mgrstore.NewMemStore(clock.Real{})
	d, err := NewDurableDecider(&scriptDecider{}, store, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RecordCircuit("open: manager unreachable"); err != nil {
		t.Fatal(err)
	}
	if got := d.DurableState().Circuit; got != "open: manager unreachable" {
		t.Errorf("circuit = %q", got)
	}
}
