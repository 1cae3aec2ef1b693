package obs

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Causal is the per-world Lamport-clock mesh behind causal tracing. Each
// rank owns one logical clock and one send sequence, both plain atomics,
// so stamping a message on the transport hot path is two atomic adds and
// allocates nothing. Clocks start at 1 (the first OnSend or OnRecv moves
// a rank's clock to >= 1), so LC == 0 on an Event or wire Envelope means
// "no causal data" — the presence flag the wire codec and the JSONL
// omitempty encoding both rely on.
type Causal struct {
	clocks []atomic.Uint64
	seqs   []atomic.Uint64
}

// NewCausal creates a mesh for a world of nranks ranks.
func NewCausal(nranks int) *Causal {
	if nranks < 0 {
		panic(fmt.Sprintf("obs: NewCausal(%d)", nranks))
	}
	return &Causal{
		clocks: make([]atomic.Uint64, nranks),
		seqs:   make([]atomic.Uint64, nranks),
	}
}

// OnSend ticks rank's Lamport clock and allocates its next send
// sequence; the pair is piggybacked on the outgoing message and stamped
// on the KindMsgSend event. Out-of-range ranks get (0, 0): the message
// simply carries no causal data.
func (c *Causal) OnSend(rank int) (lc, seq uint64) {
	if c == nil || rank < 0 || rank >= len(c.clocks) {
		return 0, 0
	}
	return c.clocks[rank].Add(1), c.seqs[rank].Add(1)
}

// OnRecv merges the piggybacked sender clock into rank's clock (Lamport
// receive rule: new = max(local, peer) + 1) and returns the new local
// clock for the KindMsgRecv event. A peerLC of 0 (message from a
// non-causal sender) still ticks the local clock so per-rank
// monotonicity holds.
func (c *Causal) OnRecv(rank int, peerLC uint64) (lc uint64) {
	if c == nil || rank < 0 || rank >= len(c.clocks) {
		return 0
	}
	cl := &c.clocks[rank]
	for {
		cur := cl.Load()
		next := cur + 1
		if peerLC >= cur {
			next = peerLC + 1
		}
		if cl.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Clock reads rank's current Lamport clock (0 if it never participated).
func (c *Causal) Clock(rank int) uint64 {
	if c == nil || rank < 0 || rank >= len(c.clocks) {
		return 0
	}
	return c.clocks[rank].Load()
}

// MaxClock returns the largest Lamport clock across the mesh.
func (c *Causal) MaxClock() uint64 {
	if c == nil {
		return 0
	}
	var max uint64
	for i := range c.clocks {
		if v := c.clocks[i].Load(); v > max {
			max = v
		}
	}
	return max
}

// Sends returns the total messages stamped across the mesh.
func (c *Causal) Sends() uint64 {
	if c == nil {
		return 0
	}
	var n uint64
	for i := range c.seqs {
		n += c.seqs[i].Load()
	}
	return n
}

// SortCausal orders a merged multi-rank event set into a single
// post-mortem timeline: primarily by timestamp (all ranks share one
// clock — wall or virtual), with Lamport clocks breaking timestamp ties
// so a matched send always precedes its receive, then (Rank, Kind) for
// determinism. The result is a linear extension of the happens-before
// DAG whenever the recorded clocks are consistent.
func SortCausal(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.LC != 0 && b.LC != 0 && a.LC != b.LC {
			return a.LC < b.LC
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Kind < b.Kind
	})
}

// CausalCheck is the result of validating a trace's (or a merged dump
// set's) causal consistency: the happens-before evidence counts plus any
// violations found. Flight-recorder rings are bounded, so a receive
// whose matching send rotated out of the sender's window is counted as
// truncated, not as a violation.
type CausalCheck struct {
	Sends     int
	Recvs     int
	Matched   int // recvs with their send present and consistent
	Truncated int // recvs whose send predates the sender's recorded window
	MaxClock  uint64

	Violations []string
}

// Ok reports whether no violations were found.
func (c CausalCheck) Ok() bool { return len(c.Violations) == 0 }

// sendKey identifies one message: the sender rank and its send sequence.
type sendKey struct {
	rank int
	seq  uint64
}

// CheckCausality runs the causality validations over a time-sorted event
// set: every receive must match a recorded send (same sender sequence,
// same piggybacked clock) and be after it in Lamport order
// (no recv-before-send); per-rank Lamport clocks must be monotone; and
// per-rank swap epochs must never move backwards across commits.
func CheckCausality(evs []Event) CausalCheck {
	var c CausalCheck
	addViolation := func(format string, args ...any) {
		c.Violations = append(c.Violations, fmt.Sprintf(format, args...))
	}

	sends := map[sendKey]Event{}
	seqRange := map[int][2]uint64{} // sender -> [min, max] recorded seq
	for _, ev := range evs {
		if ev.LC > c.MaxClock {
			c.MaxClock = ev.LC
		}
		if ev.Kind != KindMsgSend {
			continue
		}
		c.Sends++
		sends[sendKey{ev.Rank, ev.Seq}] = ev
		r, ok := seqRange[ev.Rank]
		if !ok {
			seqRange[ev.Rank] = [2]uint64{ev.Seq, ev.Seq}
			continue
		}
		if ev.Seq < r[0] {
			r[0] = ev.Seq
		}
		if ev.Seq > r[1] {
			r[1] = ev.Seq
		}
		seqRange[ev.Rank] = r
	}

	// Per-rank Lamport and epoch monotonicity over the time-sorted
	// stream. Equal timestamps carry no order between two events of one
	// rank (the sort may have reordered them), so only a strictly later
	// timestamp with a non-increasing clock is a violation.
	lastLC := map[int]uint64{}
	lastLCT := map[int]float64{}
	lastEpoch := map[int]uint64{}
	for _, ev := range evs {
		if ev.LC != 0 {
			if prev, ok := lastLC[ev.Rank]; ok && ev.T > lastLCT[ev.Rank] && ev.LC <= prev {
				addViolation("rank %d: Lamport clock not monotone: lc=%d at t=%.6g after lc=%d at t=%.6g",
					ev.Rank, ev.LC, ev.T, prev, lastLCT[ev.Rank])
			}
			if ev.LC > lastLC[ev.Rank] {
				lastLC[ev.Rank] = ev.LC
				lastLCT[ev.Rank] = ev.T
			}
		}
		// KindPaybackRealized scores a swap committed epochs ago, and
		// KindSwapRecord states the epoch its round proposed as of the
		// plan, ahead of the round's own events (an abort never reaches
		// it): neither stamp is a regression.
		if ev.Epoch != 0 && ev.Kind != KindPaybackRealized && ev.Kind != KindSwapRecord {
			if prev, ok := lastEpoch[ev.Rank]; ok && ev.Epoch < prev {
				addViolation("rank %d: epoch moved backwards: %d after %d at t=%.6g",
					ev.Rank, ev.Epoch, prev, ev.T)
			}
			if ev.Epoch > lastEpoch[ev.Rank] {
				lastEpoch[ev.Rank] = ev.Epoch
			}
		}
	}

	for _, ev := range evs {
		if ev.Kind != KindMsgRecv {
			continue
		}
		c.Recvs++
		if ev.LC != 0 && ev.PeerLC != 0 && ev.LC <= ev.PeerLC {
			addViolation("rank %d: recv-before-send: recv lc=%d not after piggybacked sender lc=%d (t=%.6g)",
				ev.Rank, ev.LC, ev.PeerLC, ev.T)
		}
		send, ok := sends[sendKey{ev.Peer, ev.Seq}]
		if !ok {
			// Bounded rings: the send may have rotated out of the
			// sender's recorded window (or the whole sender window may be
			// missing). Only a gap inside the recorded range is evidence
			// of corruption.
			r, seen := seqRange[ev.Peer]
			if !seen || ev.Seq < r[0] || ev.Seq > r[1] {
				c.Truncated++
				continue
			}
			addViolation("rank %d: recv of (sender=%d seq=%d) has no matching send inside the recorded window [%d,%d]",
				ev.Rank, ev.Peer, ev.Seq, r[0], r[1])
			continue
		}
		if send.LC != ev.PeerLC {
			addViolation("rank %d: recv of (sender=%d seq=%d) piggybacked lc=%d but the send recorded lc=%d",
				ev.Rank, ev.Peer, ev.Seq, ev.PeerLC, send.LC)
			continue
		}
		if ev.LC != 0 && ev.LC <= send.LC {
			addViolation("rank %d: recv-before-send: recv lc=%d not after send lc=%d (sender=%d seq=%d)",
				ev.Rank, ev.LC, send.LC, ev.Peer, ev.Seq)
			continue
		}
		c.Matched++
	}
	return c
}

// CausalPath is the message-edge critical-path attribution: the longest
// chain of iteration work through the happens-before DAG, where matched
// MsgSend/MsgRecv pairs are the cross-rank edges and IterEnd values are
// the per-rank work. Without causal events the rounds-based heuristic in
// Analyze is all there is; with them, Critical is exact for the recorded
// dependencies.
type CausalPath struct {
	Edges    int     // matched message edges walked
	Critical float64 // longest work chain through the DAG (s)
	Ideal    float64 // total work / ranks: the perfectly balanced floor (s)
	Stretch  float64 // Critical / Ideal
}

// CausalCriticalPath walks the time-sorted event stream once,
// accumulating per-rank work (IterEnd values) and propagating chain
// maxima along matched message edges.
func CausalCriticalPath(evs []Event) CausalPath {
	var p CausalPath
	work := map[int]float64{}        // rank -> longest chain ending at its frontier
	pending := map[sendKey]float64{} // chain value captured at each send
	ranks := map[int]bool{}
	var total float64
	for _, ev := range evs {
		if ev.Rank >= 0 {
			ranks[ev.Rank] = true
		}
		switch ev.Kind {
		case KindIterEnd:
			work[ev.Rank] += ev.Value
			total += ev.Value
		case KindMsgSend:
			pending[sendKey{ev.Rank, ev.Seq}] = work[ev.Rank]
		case KindMsgRecv:
			if v, ok := pending[sendKey{ev.Peer, ev.Seq}]; ok {
				p.Edges++
				if v > work[ev.Rank] {
					work[ev.Rank] = v
				}
			}
		}
	}
	for _, v := range work {
		if v > p.Critical {
			p.Critical = v
		}
	}
	if len(ranks) > 0 {
		p.Ideal = total / float64(len(ranks))
	}
	p.Stretch = safeDiv(p.Critical, p.Ideal)
	return p
}
