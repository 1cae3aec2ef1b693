package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestCausalMeshSemantics pins the Lamport rules: OnSend ticks clock and
// sequence, OnRecv applies max(local, peer)+1, clocks start at 1 so a
// zero LC always means "no causal data".
func TestCausalMeshSemantics(t *testing.T) {
	cz := NewCausal(3)
	if got := cz.Clock(0); got != 0 {
		t.Fatalf("fresh clock = %d, want 0", got)
	}
	lc, seq := cz.OnSend(0)
	if lc != 1 || seq != 1 {
		t.Fatalf("first OnSend = (%d,%d), want (1,1)", lc, seq)
	}
	lc, seq = cz.OnSend(0)
	if lc != 2 || seq != 2 {
		t.Fatalf("second OnSend = (%d,%d), want (2,2)", lc, seq)
	}

	// Receive from a peer far ahead: jump to peer+1.
	if got := cz.OnRecv(1, 10); got != 11 {
		t.Fatalf("OnRecv(1, 10) = %d, want 11", got)
	}
	// Receive from a peer behind: still tick the local clock.
	if got := cz.OnRecv(1, 3); got != 12 {
		t.Fatalf("OnRecv(1, 3) = %d, want 12", got)
	}
	// A non-causal message (peerLC 0) ticks too, keeping monotonicity.
	if got := cz.OnRecv(2, 0); got != 1 {
		t.Fatalf("OnRecv(2, 0) = %d, want 1", got)
	}

	if got := cz.MaxClock(); got != 12 {
		t.Fatalf("MaxClock = %d, want 12", got)
	}
	if got := cz.Sends(); got != 2 {
		t.Fatalf("Sends = %d, want 2", got)
	}

	// Out-of-range ranks and a nil mesh degrade to "no causal data".
	if lc, seq := cz.OnSend(7); lc != 0 || seq != 0 {
		t.Fatalf("out-of-range OnSend = (%d,%d), want (0,0)", lc, seq)
	}
	var nilCz *Causal
	if lc, seq := nilCz.OnSend(0); lc != 0 || seq != 0 {
		t.Fatalf("nil OnSend = (%d,%d), want (0,0)", lc, seq)
	}
	if got := nilCz.OnRecv(0, 5); got != 0 {
		t.Fatalf("nil OnRecv = %d, want 0", got)
	}
	if nilCz.MaxClock() != 0 || nilCz.Sends() != 0 || nilCz.Clock(0) != 0 {
		t.Fatal("nil mesh must report zeros")
	}
}

// TestCausalMeshConcurrent hammers one mesh from many goroutines: clocks
// must stay consistent (final clock >= number of local events) and every
// send sequence must be unique per rank.
func TestCausalMeshConcurrent(t *testing.T) {
	const ranks, perRank = 4, 500
	cz := NewCausal(ranks)
	var wg sync.WaitGroup
	seqs := make([][]uint64, ranks)
	for r := 0; r < ranks; r++ {
		r := r
		seqs[r] = make([]uint64, perRank)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				if i%2 == 0 {
					_, seqs[r][i] = cz.OnSend(r)
				} else {
					cz.OnRecv(r, cz.Clock((r+1)%ranks))
				}
			}
		}()
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		if got := cz.Clock(r); got < perRank {
			t.Fatalf("rank %d clock %d after %d events", r, got, perRank)
		}
		seen := map[uint64]bool{}
		for i := 0; i < perRank; i += 2 {
			if seqs[r][i] == 0 || seen[seqs[r][i]] {
				t.Fatalf("rank %d: duplicate or zero seq %d", r, seqs[r][i])
			}
			seen[seqs[r][i]] = true
		}
	}
}

// TestSortCausal pins the merge order: timestamp first, Lamport clocks
// breaking ties so a send precedes its receive, then rank.
func TestSortCausal(t *testing.T) {
	evs := []Event{
		{Kind: KindMsgRecv, Rank: 1, T: 1.0, LC: 5, PeerLC: 4, Seq: 1, Peer: 0},
		{Kind: KindMsgSend, Rank: 0, T: 1.0, LC: 4, Seq: 1, Peer: 1},
		{Kind: KindIterStart, Rank: 2, T: 0.5},
		{Kind: KindIterStart, Rank: 0, T: 1.0},
	}
	SortCausal(evs)
	if evs[0].Kind != KindIterStart || evs[0].Rank != 2 {
		t.Fatalf("earliest timestamp not first: %+v", evs[0])
	}
	// At t=1.0 the send (lc 4) must precede the recv (lc 5); the LC-less
	// IterStart on rank 0 sorts by rank among the causal pair's ranks.
	var sendIdx, recvIdx int
	for i, ev := range evs {
		switch ev.Kind {
		case KindMsgSend:
			sendIdx = i
		case KindMsgRecv:
			recvIdx = i
		}
	}
	if sendIdx > recvIdx {
		t.Fatalf("send after recv in causal order: %+v", evs)
	}
}

// causalPair appends a consistent matched send/recv pair to evs.
func causalPair(evs []Event, cz *Causal, from, to int, t0, t1 float64) []Event {
	lc, seq := cz.OnSend(from)
	evs = append(evs, Event{Kind: KindMsgSend, Rank: from, T: t0, Peer: to, LC: lc, Seq: seq})
	rlc := cz.OnRecv(to, lc)
	return append(evs, Event{Kind: KindMsgRecv, Rank: to, T: t1, Peer: from, LC: rlc, Seq: seq, PeerLC: lc})
}

// TestCheckCausalityClean validates a well-formed exchange.
func TestCheckCausalityClean(t *testing.T) {
	cz := NewCausal(2)
	var evs []Event
	evs = causalPair(evs, cz, 0, 1, 1.0, 1.1)
	evs = causalPair(evs, cz, 1, 0, 1.2, 1.3)
	evs = append(evs, Event{Kind: KindIterStart, Rank: 0, T: 2.0, Epoch: 1})
	evs = append(evs, Event{Kind: KindIterStart, Rank: 0, T: 3.0, Epoch: 2})
	// An aborted round's record states the epoch it proposed; the rank
	// goes on at the epoch it had.
	evs = append(evs, Event{Kind: KindSwapRecord, Rank: 0, T: 3.5, Epoch: 3, Swaps: 1, Verdict: VerdictAbort})
	evs = append(evs, Event{Kind: KindIterStart, Rank: 0, T: 4.0, Epoch: 2})
	c := CheckCausality(evs)
	if !c.Ok() {
		t.Fatalf("clean trace flagged: %v", c.Violations)
	}
	if c.Sends != 2 || c.Recvs != 2 || c.Matched != 2 || c.Truncated != 0 {
		t.Fatalf("counts = %+v, want 2/2/2/0", c)
	}
	if c.MaxClock == 0 {
		t.Fatal("MaxClock not tracked")
	}
}

// TestCheckCausalityViolations exercises each validation: recv clock not
// after the sender's, a gap inside the recorded send window, a clock
// mismatch against the recorded send, non-monotone Lamport clocks, and a
// backwards epoch.
func TestCheckCausalityViolations(t *testing.T) {
	cases := []struct {
		name string
		evs  []Event
		want string
	}{
		{"recv-not-after-piggyback",
			[]Event{{Kind: KindMsgRecv, Rank: 1, T: 1, Peer: 0, LC: 3, PeerLC: 3, Seq: 9}},
			"recv-before-send"},
		{"gap-inside-window",
			[]Event{
				{Kind: KindMsgSend, Rank: 0, T: 1, Peer: 1, LC: 1, Seq: 1},
				{Kind: KindMsgSend, Rank: 0, T: 3, Peer: 1, LC: 3, Seq: 3},
				{Kind: KindMsgRecv, Rank: 1, T: 4, Peer: 0, LC: 9, PeerLC: 2, Seq: 2},
			},
			"no matching send inside the recorded window"},
		{"clock-mismatch",
			[]Event{
				{Kind: KindMsgSend, Rank: 0, T: 1, Peer: 1, LC: 5, Seq: 1},
				{Kind: KindMsgRecv, Rank: 1, T: 2, Peer: 0, LC: 9, PeerLC: 4, Seq: 1},
			},
			"piggybacked lc=4 but the send recorded lc=5"},
		{"lamport-regression",
			[]Event{
				{Kind: KindMsgSend, Rank: 0, T: 1, Peer: 1, LC: 5, Seq: 1},
				{Kind: KindMsgSend, Rank: 0, T: 2, Peer: 1, LC: 4, Seq: 2},
			},
			"Lamport clock not monotone"},
		{"epoch-backwards",
			[]Event{
				{Kind: KindIterStart, Rank: 0, T: 1, Epoch: 3},
				{Kind: KindIterStart, Rank: 0, T: 2, Epoch: 2},
			},
			"epoch moved backwards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := CheckCausality(tc.evs)
			if c.Ok() {
				t.Fatalf("no violation detected")
			}
			if !strings.Contains(strings.Join(c.Violations, "\n"), tc.want) {
				t.Fatalf("violations %v missing %q", c.Violations, tc.want)
			}
		})
	}
}

// TestCheckCausalityTruncation pins the bounded-ring tolerance: a recv
// whose send predates the sender's recorded window — or whose sender
// window is missing entirely — counts as truncated, not as a violation.
func TestCheckCausalityTruncation(t *testing.T) {
	evs := []Event{
		// Sender window starts at seq 5; the recv of seq 2 rotated out.
		{Kind: KindMsgSend, Rank: 0, T: 5, Peer: 1, LC: 5, Seq: 5},
		{Kind: KindMsgRecv, Rank: 1, T: 6, Peer: 0, LC: 9, PeerLC: 2, Seq: 2},
		// Rank 3's whole window is missing (its dump may be lost).
		{Kind: KindMsgRecv, Rank: 1, T: 7, Peer: 3, LC: 10, PeerLC: 1, Seq: 1},
	}
	c := CheckCausality(evs)
	if !c.Ok() {
		t.Fatalf("truncated recvs flagged as violations: %v", c.Violations)
	}
	if c.Truncated != 2 || c.Matched != 0 {
		t.Fatalf("truncated=%d matched=%d, want 2/0", c.Truncated, c.Matched)
	}
}

// TestCausalCriticalPath pins the message-edge DP on a hand-built DAG:
// rank 0 does 3s of work, ships it to rank 1 which adds 2s — a 5s chain
// against 6s total work on 2 ranks (ideal 3s), stretch 5/3.
func TestCausalCriticalPath(t *testing.T) {
	cz := NewCausal(2)
	evs := []Event{
		{Kind: KindIterEnd, Rank: 0, T: 3, Value: 3},
		{Kind: KindIterEnd, Rank: 1, T: 1, Value: 1},
	}
	evs = causalPair(evs, cz, 0, 1, 3.0, 3.1)
	evs = append(evs, Event{Kind: KindIterEnd, Rank: 1, T: 5.1, Value: 2})
	sortEvents(evs)
	p := CausalCriticalPath(evs)
	if p.Edges != 1 {
		t.Fatalf("edges = %d, want 1", p.Edges)
	}
	if p.Critical != 5 {
		t.Fatalf("critical = %g, want 5", p.Critical)
	}
	if p.Ideal != 3 {
		t.Fatalf("ideal = %g, want 3", p.Ideal)
	}
	if p.Stretch < 1.66 || p.Stretch > 1.67 {
		t.Fatalf("stretch = %g, want 5/3", p.Stretch)
	}
}

// TestCausalJSONLRoundTrip pins both halves of the format contract: an
// event without causal data serializes without any causal keys (the
// byte-identical-to-PR3 property), and causal fields survive the
// WriteEventsJSONL -> ReadJSONL round trip.
func TestCausalJSONLRoundTrip(t *testing.T) {
	plain := Event{Kind: KindIterEnd, Rank: 1, T: 2.5, Value: 0.5}
	var sb strings.Builder
	if err := WriteEventsJSONL(&sb, []Event{plain}); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"lc", "seq", "peer_lc", "epoch"} {
		if strings.Contains(sb.String(), `"`+key+`"`) {
			t.Fatalf("non-causal event leaked %q: %s", key, sb.String())
		}
	}

	causal := []Event{
		{Kind: KindMsgSend, Rank: 0, T: 1, Peer: 1, Bytes: 64, LC: 7, Seq: 3},
		{Kind: KindMsgRecv, Rank: 1, T: 1.1, Peer: 0, Bytes: 64, LC: 8, Seq: 3, PeerLC: 7},
		{Kind: KindIterStart, Rank: 0, T: 2, Epoch: 4},
	}
	sb.Reset()
	if err := WriteEventsJSONL(&sb, causal); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSONL(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(causal) {
		t.Fatalf("round trip lost events: %d != %d", len(back), len(causal))
	}
	for i, ev := range back {
		want := causal[i]
		if ev.LC != want.LC || ev.Seq != want.Seq || ev.PeerLC != want.PeerLC || ev.Epoch != want.Epoch {
			t.Fatalf("event %d causal fields diverged: got %+v want %+v", i, ev, want)
		}
	}
}
