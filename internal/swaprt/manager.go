package swaprt

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/swaprt/policylens"
)

// DecideRequest carries one swap-point measurement set to a decider.
type DecideRequest struct {
	Epoch       uint64    `json:"epoch"`
	Now         float64   `json:"now"` // seconds since application start
	ActiveSet   []int     `json:"active_set"`
	ActiveRates []float64 `json:"active_rates"`
	SpareSet    []int     `json:"spare_set"`
	SpareRates  []float64 `json:"spare_rates"`
	IterTime    float64   `json:"iter_time"`
	SwapTime    float64   `json:"swap_time"` // predicted cost of one swap
}

// Validate checks what the layers below take for granted: one rate per
// rank (they index the vectors pairwise), and the payback algebra's
// domain — positive rates, a non-negative swap cost — outside which
// core.Policy panics. It runs where a request crosses a trust boundary
// (the manager's wire protocol) and in LocalDecider.
func (r DecideRequest) Validate() error {
	if len(r.ActiveSet) != len(r.ActiveRates) || len(r.SpareSet) != len(r.SpareRates) {
		return fmt.Errorf("swaprt: mismatched rate vectors: %d active ranks with %d rates, %d spares with %d rates",
			len(r.ActiveSet), len(r.ActiveRates), len(r.SpareSet), len(r.SpareRates))
	}
	for _, rates := range [][]float64{r.ActiveRates, r.SpareRates} {
		for _, rate := range rates {
			if !(rate > 0) {
				return fmt.Errorf("swaprt: decide request with rate %g, want > 0", rate)
			}
		}
	}
	if !(r.SwapTime >= 0) {
		return fmt.Errorf("swaprt: decide request with swap time %g, want >= 0", r.SwapTime)
	}
	return nil
}

// SwapDirective orders the process on Out's host to move to In's host
// (world ranks).
type SwapDirective struct {
	Out int `json:"out"`
	In  int `json:"in"`
}

// DecideResponse is the manager's decision. Eval, when present, explains
// the verdict (decisive pair, payback distance, which gate decided).
type DecideResponse struct {
	Swaps []SwapDirective   `json:"swaps"`
	Eval  *core.Explanation `json:"eval,omitempty"`
}

// ReportMsg is one asynchronous performance measurement pushed by a swap
// handler between swap points. Telemetry, when the runtime has a hub
// enabled, piggybacks the rank's windowed telemetry snapshot on the same
// message.
type ReportMsg struct {
	Rank      int            `json:"rank"`
	Now       float64        `json:"now"`
	Rate      float64        `json:"rate"`
	Telemetry *RankTelemetry `json:"telemetry,omitempty"`
}

// LocalDecider is the leaf of every decision stack: per-rank performance
// histories whose window means its policylens.Boundary decides on and,
// when the Lens is set, audits — as the simulator's swap manager does.
type LocalDecider struct {
	StayDecider
	policylens.Boundary

	mu    sync.Mutex
	hist  map[int]*predict.History
	cands []core.Candidate // Decide's candidates with their estimates, as requested
}

// NewLocalDecider builds a decider around the policy.
func NewLocalDecider(policy core.Policy) *LocalDecider {
	if err := policy.Validate(); err != nil {
		panic(err)
	}
	return &LocalDecider{Boundary: policylens.Boundary{Policy: policy}, hist: map[int]*predict.History{}}
}

// Report implements Decider: the measurement joins the rank's history
// and will inform future window-mean estimates.
func (d *LocalDecider) Report(r ReportMsg) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.record(r.Rank, r.Now, r.Rate)
	return nil
}

// record appends a measurement (out-of-order times are clamped: handler
// and swap-point clocks may interleave), forgets what the policy's
// history window no longer reaches — with no window, all but the latest
// sample — and returns the window-mean estimate.
func (d *LocalDecider) record(rank int, now, rate float64) float64 {
	h := d.hist[rank]
	if h == nil {
		h = &predict.History{}
		d.hist[rank] = h
	}
	if s, ok := h.Latest(); ok && now < s.T {
		now = s.T
	}
	h.Add(now, rate)
	w := d.Policy.HistoryWindow
	h.Trim(now, w)
	if w > 0 {
		if m := h.WindowMean(now, w); m > 0 {
			return m
		}
	}
	return rate
}

// Decide implements Decider: every measurement joins its rank's history,
// and the policy decides on the window-mean estimates.
func (d *LocalDecider) Decide(req DecideRequest) (DecideResponse, error) {
	if err := req.Validate(); err != nil {
		return DecideResponse{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	cands := d.cands[:0]
	for i, rank := range req.ActiveSet {
		cands = append(cands, core.Candidate{ID: rank, Rate: d.record(rank, req.Now, req.ActiveRates[i])})
	}
	na := len(cands)
	for i, rank := range req.SpareSet {
		cands = append(cands, core.Candidate{ID: rank, Rate: d.record(rank, req.Now, req.SpareRates[i])})
	}
	d.cands = cands
	if req.IterTime <= 0 {
		return DecideResponse{}, nil
	}
	pairs, eval := d.Boundary.Decide(req.Now, req.Epoch, core.DecideInput{IterTime: req.IterTime,
		SwapTime: req.SwapTime, Active: cands[:na:na], Spare: cands[na:]}, true)
	resp := DecideResponse{Eval: &eval}
	for _, p := range pairs {
		resp.Swaps = append(resp.Swaps, SwapDirective{Out: p.Out.ID, In: p.In.ID})
	}
	return resp, nil
}

// ReportOutcome implements Decider: the leader's verdict on a proposed
// epoch activates (commit) or drops (abort) the prediction its decision
// armed in the lens, at the decision's time (the outcome carries none).
func (d *LocalDecider) ReportOutcome(o OutcomeMsg) error {
	d.Lens.ObserveOutcome(0, o.Epoch, o.Committed)
	return nil
}

// manager coordinates one world's swapping: it parks spare ranks, routes
// swap-in assignments to them, funnels leader decisions through the
// configured Decider, and quarantines spares whose swap-in failed.
type manager struct {
	cfg     Config
	decider Decider

	vt          *clock.Fake // the world's virtual clock: a waiting spare is parked on it
	mu          sync.Mutex
	wake        *sync.Cond           // an assignment arrived, or the application finished
	assigned    map[int][]assignment // by spare, in the order proposed
	parked      map[int]bool         // spares idle on vt
	quarantined map[int]bool
	finished    bool

	scratch decideScratch
}

// assignment tells a parked spare to become active. The final active set
// is not part of the assignment: under the two-phase protocol it is only
// known once the transfer outcome is agreed, and arrives in the commit
// message.
type assignment struct {
	epoch     uint64
	stateFrom int // world rank that will send the registered state
}

// maxAssigned is how many assignments may wait for one spare: it can lag
// behind the leader by a couple of swap points.
const maxAssigned = 4

func newManager(cfg Config, decider Decider, vt *clock.Fake) *manager {
	m := &manager{cfg: cfg, decider: decider, vt: vt,
		assigned: map[int][]assignment{}, parked: map[int]bool{}, quarantined: map[int]bool{}}
	m.wake = sync.NewCond(&m.mu)
	return m
}

// quarantine excludes a rank from future swap candidates; the leader
// calls it after the rank failed to complete a swap-in.
func (m *manager) quarantine(rank int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quarantined[rank] = true
}

// isQuarantined reports whether rank has been quarantined.
func (m *manager) isQuarantined(rank int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined[rank]
}

// wait parks a spare — idle, on a virtual clock — until it is swapped in
// or the application finishes. An assignment that raced the finish is
// still taken.
func (m *manager) wait(rank int) (assignment, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.assigned[rank]) == 0 && !m.finished {
		m.parked[rank] = true
		m.vt.Park()
		m.wake.Wait()
		m.unparkLocked(rank)
	}
	q := m.assigned[rank]
	if len(q) == 0 {
		return assignment{}, false
	}
	a := q[0]
	m.assigned[rank] = append(q[:0], q[1:]...)
	return a, true
}

// assign wakes the given spare, unparking it first. If maxAssigned
// assignments already wait for it, the runtime's invariant that each
// spare is assigned at most once per parked period is broken, and
// queueing more would only hide it — so fail loudly instead.
func (m *manager) assign(rank int, a assignment) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.assigned[rank]); n == maxAssigned {
		return fmt.Errorf("swaprt: assignment queue for rank %d full (%d pending)", rank, n)
	}
	m.assigned[rank] = append(m.assigned[rank], a)
	m.unparkLocked(rank)
	m.wake.Broadcast()
	return nil
}

// finish releases all parked spares. Idempotent.
func (m *manager) finish() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished = true
	for rank := range m.parked {
		m.unparkLocked(rank)
	}
	m.wake.Broadcast()
}

func (m *manager) unparkLocked(rank int) {
	if m.parked[rank] {
		m.parked[rank] = false
		m.vt.Unpark()
	}
}

// Per-rank marks of one decision.
const (
	markActive uint8 = 1 << iota // a member of the active set
	markTaken                    // named by a directive: no other may name it
)

// decideScratch is what one decision builds and the next overwrites. It
// belongs to the active leader: one rank decides per swap point, and
// the swap protocol orders a leader's last decision before its
// successor's first. A Decider may read the request's slices only until
// it returns.
type decideScratch struct {
	marks []uint8          // by world rank
	pool  []core.Candidate // probed spares
	req   DecideRequest
}

// decide is called by the active leader with active measurements; it
// handles forced evictions, probes spares and consults the decider for
// the rest.
func (m *manager) decide(epoch uint64, now float64, activeSet []int, activeRates []float64,
	allRanks int, iterTime, swapTime float64) (DecideResponse, error) {

	sc := &m.scratch
	sc.marks = slices.Grow(sc.marks[:0], allRanks)[:allRanks]
	marks := sc.marks
	clear(marks)
	for _, r := range activeSet {
		marks[r] = markActive
	}
	// Candidate pool: every non-active rank that is not quarantined. A
	// quarantined spare failed a swap-in; probing it again is pointless
	// and offering it to the decider would just re-abort.
	pool := sc.pool[:0]
	for r := 0; r < allRanks; r++ {
		if marks[r] == 0 && !m.isQuarantined(r) {
			pool = append(pool, core.Candidate{ID: r, Rate: m.cfg.Probe(r)})
		}
	}
	sc.pool = pool

	// Forced evictions first: an evicted host's process must leave no
	// matter what the policy thinks; it takes the fastest spare whose
	// host is not itself evicted.
	evicted := m.cfg.Evicted
	if evicted == nil {
		evicted = func(int) bool { return false }
	}
	var forced []SwapDirective
	for _, out := range activeSet {
		if !evicted(out) {
			continue
		}
		best, bestRate := -1, -1.0
		for _, sp := range pool {
			if marks[sp.ID]&markTaken == 0 && !evicted(sp.ID) && sp.Rate > bestRate {
				best, bestRate = sp.ID, sp.Rate
			}
		}
		if best < 0 {
			return DecideResponse{}, fmt.Errorf(
				"swaprt: rank %d evicted but no spare available", out)
		}
		marks[out] |= markTaken
		marks[best] |= markTaken
		forced = append(forced, SwapDirective{Out: out, In: best})
	}

	// The decider sees only the unforced remainder: drop spares already
	// claimed by an eviction, and evicted hosts (no target for voluntary
	// swaps either).
	req := &sc.req
	*req = DecideRequest{Epoch: epoch, Now: now, IterTime: iterTime, SwapTime: swapTime,
		ActiveSet: req.ActiveSet[:0], ActiveRates: req.ActiveRates[:0],
		SpareSet: req.SpareSet[:0], SpareRates: req.SpareRates[:0]}
	for i, r := range activeSet {
		if marks[r]&markTaken == 0 {
			req.ActiveSet = append(req.ActiveSet, r)
			req.ActiveRates = append(req.ActiveRates, activeRates[i])
		}
	}
	for _, sp := range pool {
		if marks[sp.ID]&markTaken == 0 && !evicted(sp.ID) {
			req.SpareSet = append(req.SpareSet, sp.ID)
			req.SpareRates = append(req.SpareRates, sp.Rate)
		}
	}
	resp, err := m.decider.Decide(*req)
	if err != nil {
		return DecideResponse{}, err
	}
	// Validate: Out must be active, In must be a spare that is neither
	// quarantined nor evicted, no rank reused.
	for _, s := range resp.Swaps {
		if s.Out < 0 || s.Out >= allRanks || s.In < 0 || s.In >= allRanks ||
			marks[s.Out] != markActive || marks[s.In] != 0 || m.isQuarantined(s.In) || evicted(s.In) {
			return DecideResponse{}, fmt.Errorf("swaprt: invalid swap directive %+v", s)
		}
		marks[s.Out] |= markTaken
		marks[s.In] |= markTaken
	}
	if len(forced) > 0 {
		resp.Swaps = append(forced, resp.Swaps...)
	}
	return resp, nil
}
