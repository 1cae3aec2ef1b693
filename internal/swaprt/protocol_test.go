package swaprt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/mpi"
	"repro/internal/mpi/fault"
	"repro/internal/obs"
)

// TestRoundSettles drives the deciding step of the two-phase swap with a
// table and no world: a round settled from the votes, and one settled
// from the verdict they tally to, must reach the same set, epoch and
// quarantines.
func TestRoundSettles(t *testing.T) {
	const ok, fail, none = outcomeOK, outcomeFail, outcomeNone
	for _, c := range []struct {
		name        string
		set         []int
		swaps       []SwapDirective
		votes       [][]byte // by member, as gathered
		verdict     []byte
		newSet      []int
		epoch       uint64 // settled from epoch 7
		quarantined []int
	}{{
		name: "all commit",
		set:  []int{0, 1}, swaps: []SwapDirective{{Out: 0, In: 2}},
		votes: [][]byte{{ok}, {none}}, verdict: []byte{ok},
		newSet: []int{2, 1}, epoch: 8,
	}, {
		name: "all abort",
		set:  []int{0, 1}, swaps: []SwapDirective{{Out: 0, In: 2}, {Out: 1, In: 3}},
		votes: [][]byte{{fail, none}, {none, fail}}, verdict: []byte{fail, fail},
		newSet: []int{0, 1}, epoch: 7, quarantined: []int{2, 3},
	}, {
		name: "mixed",
		set:  []int{0, 1, 2}, swaps: []SwapDirective{{Out: 0, In: 3}, {Out: 2, In: 4}},
		votes: [][]byte{{ok, none}, {none, none}, {none, fail}}, verdict: []byte{ok, fail},
		newSet: []int{3, 1, 2}, epoch: 8, quarantined: []int{4},
	}, {
		// The manager puts a forced directive first; the round treats it
		// as any other.
		name: "eviction plus voluntary",
		set:  []int{0, 1}, swaps: []SwapDirective{{Out: 1, In: 3}, {Out: 0, In: 2}},
		votes: [][]byte{{none, ok}, {fail, none}}, verdict: []byte{fail, ok},
		newSet: []int{2, 1}, epoch: 8, quarantined: []int{3},
	}, {
		name: "multi-directive",
		set:  []int{0, 1, 2, 3}, swaps: []SwapDirective{{Out: 3, In: 6}, {Out: 0, In: 4}, {Out: 1, In: 5}},
		votes:   [][]byte{{none, ok, none}, {none, none, ok}, {none, none, none}, {ok, none, none}},
		verdict: []byte{ok, ok, ok}, newSet: []int{4, 5, 2, 6}, epoch: 8,
	}, {
		name: "a directive nobody voted for aborts",
		set:  []int{0, 1}, swaps: []SwapDirective{{Out: 0, In: 2}},
		votes: [][]byte{{none}, {none}}, verdict: []byte{none},
		newSet: []int{0, 1}, epoch: 7, quarantined: []int{2},
	}} {
		t.Run(c.name, func(t *testing.T) {
			set := slices.Clone(c.set)
			r := newRound(set, 7, c.swaps, c.votes)
			want := round{verdict: c.verdict, set: c.newSet, epoch: c.epoch, quarantined: c.quarantined}
			if !reflect.DeepEqual(r, want) {
				t.Fatalf("leader settled %+v, want %+v", r, want)
			}
			if member := newRound(set, 7, c.swaps, [][]byte{r.verdict}); !reflect.DeepEqual(member, r) {
				t.Fatalf("a member settled %+v from the verdict, the leader %+v", member, r)
			}
			if !slices.Equal(set, c.set) {
				t.Fatalf("settling rewrote the old set: %v, was %v", set, c.set)
			}
		})
	}
}

// TestCheckVote: a vote that is not one outcome per directive of the
// plan is an error naming its sender, never read as outcomeNone.
func TestCheckVote(t *testing.T) {
	for _, c := range []struct {
		name       string
		vote       []byte
		directives int
		err        string // "" for a valid vote
	}{
		{name: "one per directive", vote: []byte{outcomeOK, outcomeNone, outcomeFail}, directives: 3},
		{name: "too short", vote: []byte{outcomeOK}, directives: 2, err: "vote from rank 3: 1 bytes for 2 directives"},
		{name: "too long", vote: []byte{outcomeOK, outcomeOK}, directives: 1, err: "vote from rank 3: 2 bytes for 1 directives"},
		{name: "unknown outcome", vote: []byte{outcomeNone, 7}, directives: 2, err: "vote from rank 3: outcome 7 for directive 1"},
		{name: "empty plan", vote: []byte{}, directives: 0},
		{name: "a vote on an empty plan", vote: []byte{outcomeNone}, directives: 0, err: "vote from rank 3: 1 bytes for 0 directives"},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := checkVote(3, c.vote, c.directives)
			if c.err == "" && err != nil || c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
				t.Fatalf("checkVote(3, %v, %d) = %v, want %q", c.vote, c.directives, err, c.err)
			}
		})
	}
}

// TestDecodeRates: the leader decodes one 8-byte rate per member; a part
// of any other length is an error naming its sender, and no rate vector
// comes back to decide on.
func TestDecodeRates(t *testing.T) {
	rate := func(x float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)) }
	members := []int{5, 2, 7}
	for _, c := range []struct {
		name  string
		parts [][]byte
		want  []float64
		err   string // "" for valid parts
	}{
		{name: "one rate per member", parts: [][]byte{rate(1000), rate(2.5), rate(math.Inf(1))}, want: []float64{1000, 2.5, math.Inf(1)}},
		{name: "short part", parts: [][]byte{rate(1000), rate(2.5)[:4], rate(3)}, err: "rate from rank 2: 4 bytes, want 8"},
		{name: "long part", parts: [][]byte{rate(1000), rate(2.5), append(rate(3), 0)}, err: "rate from rank 7: 9 bytes, want 8"},
		{name: "empty part", parts: [][]byte{nil, rate(2.5), rate(3)}, err: "rate from rank 5: 0 bytes, want 8"},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, err := decodeRates(members, c.parts, make([]float64, 0, 3))
			if c.err == "" && (err != nil || !slices.Equal(got, c.want)) {
				t.Fatalf("decodeRates = %v, %v; want %v", got, err, c.want)
			}
			if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err) || got != nil) {
				t.Fatalf("decodeRates = %v, %v; want no rates and %q", got, err, c.err)
			}
		})
	}
}

// TestSteadySwapPointIsOneGatherAndOnePlan: on a TCP world of 4 active
// ranks and a spare that never swaps, a swap point is the members' rates
// gathered at the leader and the plan broadcast back: 2·3 messages per
// iteration (3·3 while the rates were all-gathered), and nothing else.
func TestSteadySwapPointIsOneGatherAndOnePlan(t *testing.T) {
	const iters = 25
	w, err := mpi.NewTCPWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RunWithStats(w, Config{Active: 4, Probe: func(int) float64 { return 1000 }, Decider: StayDecider{}},
		func(s *Session) error {
			iter := 0
			s.Register("iter", &iter)
			for !s.Done() && iter < iters {
				if s.Active() {
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Swaps != 0 || rs.SwapPoints != 4*iters {
		t.Fatalf("%d swaps over %d swap points, want 0 over %d", rs.Swaps, rs.SwapPoints, 4*iters)
	}
	total := rs.MPI.Total()
	if total.MsgsSent != 2*3*iters || total.MsgsRecv != total.MsgsSent {
		t.Fatalf("%d iterations sent %d messages and received %d, want %d", iters, total.MsgsSent, total.MsgsRecv, 2*3*iters)
	}
}

// twoDirectives proposes its swaps at the first decision and stays after.
type twoDirectives struct {
	StayDecider
	swaps     []SwapDirective
	decisions int
}

func (d *twoDirectives) Decide(DecideRequest) (DecideResponse, error) {
	d.decisions++
	if d.decisions > 1 {
		return DecideResponse{}, nil
	}
	return DecideResponse{Swaps: d.swaps}, nil
}

// TestVoteSettlesInOneHop: 4 members and 2 spares, one round of two
// directives, the second aborted by dropping its state. Only the two
// outgoing ranks vote, each straight to the 3 other members: k·(n−1) = 6
// messages, from which every member settles the same set and epoch.
func TestVoteSettlesInOneHop(t *testing.T) {
	plan := fault.MustParse("drop:src=2,dst=5,after=0,count=1")
	w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 6, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(6)
	tr.Enable()
	var mu sync.Mutex
	ends := map[int][]int{}
	ids := map[uint64]bool{}
	rs, err := RunWithStats(w, Config{Active: 4, Probe: func(int) float64 { return 1000 }, Tracer: tr,
		TransferTimeout: 100 * time.Millisecond,
		Decider:         &twoDirectives{swaps: []SwapDirective{{Out: 1, In: 4}, {Out: 2, In: 5}}}},
		func(s *Session) error {
			iter := 0
			s.Register("iter", &iter)
			for !s.Done() && iter < 1 {
				if s.Active() {
					iter++
				}
				if err := s.SwapPoint(); err != nil {
					return err
				}
			}
			if s.Active() {
				mu.Lock()
				ends[s.Rank()], ids[s.Comm().ID()] = s.Comm().Members(), true
				mu.Unlock()
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Swaps != 1 || rs.SwapAborts != 1 || rs.Quarantined != 1 {
		t.Fatalf("%d swaps, %d aborts, %d quarantined; want 1 each", rs.Swaps, rs.SwapAborts, rs.Quarantined)
	}
	want := []int{0, 4, 2, 3}
	for _, rank := range want {
		if !slices.Equal(ends[rank], want) {
			t.Errorf("rank %d ended with set %v, want %v", rank, ends[rank], want)
		}
	}
	if len(ends) != len(want) || len(ids) != 1 {
		t.Errorf("%d ranks ended active on %d communicators, want %d on one", len(ends), len(ids), len(want))
	}
	epochs := map[int]uint64{}
	quarantined := false
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case obs.KindIterStart:
			epochs[ev.Rank] = ev.Epoch
		case obs.KindQuarantine:
			quarantined = quarantined || ev.Peer == 5
		}
	}
	for _, rank := range want {
		if epochs[rank] != 1 {
			t.Errorf("rank %d started its last iteration at epoch %d, want 1", rank, epochs[rank])
		}
	}
	if !quarantined {
		t.Error("the aborted spare, rank 5, was not quarantined")
	}

	// What each rank sends besides its vote: the rates' gather, the
	// binomial broadcast of the plan from comm rank 0 (0→1, 0→2, 1→3),
	// each outgoing rank's state and outcome (the dropped state counts as
	// sent), and the committing spare's ack.
	others := []uint64{2, 4, 3, 1, 1, 0}
	votes := []uint64{0, 3, 3, 0, 0, 0}
	for rank, st := range rs.MPI.PerRank {
		if got := st.MsgsSent - others[rank]; got != votes[rank] {
			t.Errorf("rank %d sent %d vote messages, want %d", rank, got, votes[rank])
		}
	}
}

// TestLeaderErrorEndsTheRun: an error the leader returns from SwapPoint
// (here an eviction with no spare to take the process) must end the run,
// not leave the other member blocked in the plan broadcast.
func TestLeaderErrorEndsTheRun(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(mpi.NewWorld(2), Config{
			Active:  2,
			Probe:   func(int) float64 { return 100 },
			Evicted: func(rank int) bool { return rank == 0 },
		}, iterBody(3, nil, nil))
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "no spare available") {
			t.Fatalf("err = %v, want the leader's eviction failure", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run still blocked 5s after its leader failed")
	}
}

// scriptedSwaps forces swaps: at the given decision numbers it proposes
// the directive, if its Out is still active and its In still offered,
// and stays otherwise. It counts the directives it proposed.
type scriptedSwaps struct {
	StayDecider
	at map[int]SwapDirective

	mu                  sync.Mutex
	decisions, proposed int
}

func (d *scriptedSwaps) Decide(req DecideRequest) (DecideResponse, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.decisions++
	sw, ok := d.at[d.decisions]
	if !ok || !slices.Contains(req.ActiveSet, sw.Out) || !slices.Contains(req.SpareSet, sw.In) {
		return DecideResponse{}, nil
	}
	d.proposed++
	return DecideResponse{Swaps: []SwapDirective{sw}}, nil
}

// TestEverySingleFaultAtEveryStep runs forced 2+1 swaps under every single
// fault the spare side of the protocol can meet: each message to or from
// the incoming spare (its state, its ack, the outcome) dropped, refused
// mid-message or delayed past its receiver's deadline, and the spare's
// host dying at every iteration at which it is parked. A spare that dies
// once swapped in is a dead member, which no swap protocol can save.
// Every run must return: nil with both final lanes holding the fault-free
// accumulator, or — where the fault can take a commit the members have
// already agreed on — the spare's errOutcomeLost. On the way, the traced
// epochs of a rank never decrease, every proposed directive is counted
// committed or aborted, and no spare is assigned after its quarantine.
func TestEverySingleFaultAtEveryStep(t *testing.T) {
	const (
		iters = 6
		accel = 20
		leg   = time.Second // TransferTimeout: 50 ms of wall time
	)
	want := float64(iters * (iters - 1) / 2)
	// A protocol message is the after-th message from src to dst: the
	// spare is parked before its round, so nothing else passes between it
	// and its outgoing rank.
	type message struct {
		src, dst, after int
		step            string
	}
	// A spare and the iterations it is parked through; sending, when the
	// commit of the round that parked it may still be on its way as
	// iteration from begins.
	type parked struct {
		rank, from, to int
		sending        bool
	}
	scenarios := []struct {
		name  string
		swaps map[int]SwapDirective // by decision; decision k follows iteration k
		msgs  []message
		dies  []parked
	}{{
		name:  "one round",
		swaps: map[int]SwapDirective{2: {Out: 0, In: 2}},
		msgs:  []message{{0, 2, 0, "state"}, {2, 0, 0, "ack"}, {0, 2, 1, "commit"}},
		dies:  []parked{{rank: 2, from: 0, to: 2}},
	}, {
		name:  "two rounds",
		swaps: map[int]SwapDirective{2: {Out: 0, In: 2}, 4: {Out: 2, In: 0}},
		msgs: []message{{0, 2, 0, "state"}, {2, 0, 0, "ack"}, {0, 2, 1, "commit"},
			{2, 0, 1, "state"}, {0, 2, 2, "ack"}, {2, 0, 2, "commit"}},
		dies: []parked{{rank: 2, from: 0, to: 2}, {rank: 0, from: 3, to: 4, sending: true}},
	}}

	type result struct {
		stats    RunStats
		err      error
		lanes    map[int]float64
		events   []obs.Event
		proposed int
	}
	run := func(t *testing.T, swaps map[int]SwapDirective, spec string) result {
		plan := fault.MustParse(spec)
		w, err := mpi.NewWorldWithConfig(mpi.Config{Size: 3, Fault: plan, Clock: clock.NewScaled(accel)})
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.New(3, obs.WithClock(clock.Seconds(w.Clock())))
		tr.Enable()
		d := &scriptedSwaps{at: swaps}
		var out sync.Map
		done := make(chan result, 1)
		go func() {
			stats, err := RunWithStats(w, Config{Active: 2, Decider: d, Probe: func(int) float64 { return 1000 },
				TransferTimeout: leg, Tracer: tr}, chaosBody(iters, plan, 0, &out))
			r := result{stats: stats, err: err, lanes: map[int]float64{}, events: tr.Events(), proposed: d.proposed}
			out.Range(func(rank, acc any) bool {
				r.lanes[rank.(int)] = acc.(float64)
				return true
			})
			done <- r
		}()
		select {
		case r := <-done:
			return r
		case <-time.After(10 * time.Second):
			t.Fatalf("%q: the run had not returned after 10s", spec)
			return result{}
		}
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			// The fault-free run commits every round, and the enumeration
			// names every message between a spare and its outgoing rank.
			base := run(t, sc.swaps, "")
			if base.err != nil || base.stats.Swaps != len(sc.swaps) {
				t.Fatalf("fault-free run: %d swaps, err %v; want %d swaps", base.stats.Swaps, base.err, len(sc.swaps))
			}
			sent := map[[2]int]int{}
			for _, ev := range base.events {
				if ev.Kind == obs.KindMPISend {
					sent[[2]int{ev.Rank, ev.Peer}]++
				}
			}
			named := map[[2]int]int{}
			for _, m := range sc.msgs {
				named[[2]int{m.src, m.dst}]++
			}
			for pair, n := range named {
				if sent[pair] != n {
					t.Fatalf("fault-free run sent %d messages %d->%d, the enumeration names %d", sent[pair], pair[0], pair[1], n)
				}
			}

			type row struct {
				spec    string
				mayLose bool // the fault can take an agreed commit
			}
			var rows []row
			for _, m := range sc.msgs {
				at := fmt.Sprintf("src=%d,dst=%d,after=%d,count=1", m.src, m.dst, m.after)
				past := 2 * leg // past the state's and the ack's deadline
				if m.step == "commit" {
					past = 5 * leg // past the spare's outcome deadline
				}
				rows = append(rows,
					row{spec: "drop:" + at, mayLose: m.step == "commit"},
					row{spec: "close:" + at}, // a refused commit is sent again
					row{spec: fmt.Sprintf("delay:%s,ms=%d", at, past.Milliseconds()), mayLose: m.step == "commit"})
			}
			for _, p := range sc.dies {
				for k := p.from; k <= p.to; k++ {
					rows = append(rows, row{spec: fmt.Sprintf("die:rank=%d,iter=%d", p.rank, k), mayLose: p.sending && k == p.from})
				}
			}
			for _, rw := range rows {
				t.Run(rw.spec, func(t *testing.T) {
					t.Parallel()
					r := run(t, sc.swaps, rw.spec)
					switch {
					case r.err == nil:
						if len(r.lanes) != 2 {
							t.Errorf("%d final lanes, want 2", len(r.lanes))
						}
						for rank, acc := range r.lanes {
							if acc != want {
								t.Errorf("rank %d finished with acc %g, want %g", rank, acc, want)
							}
						}
					case !rw.mayLose || !errors.Is(r.err, errOutcomeLost):
						t.Errorf("run failed: %v", r.err)
					}
					if got := r.stats.Swaps + r.stats.SwapAborts; got != r.proposed {
						t.Errorf("%d swaps + %d aborts, but %d directives proposed", r.stats.Swaps, r.stats.SwapAborts, r.proposed)
					}
					epoch := map[int]uint64{}
					quarantined := map[int]bool{}
					injected := false
					for _, ev := range r.events {
						injected = injected || ev.Kind == obs.KindFaultInject
						switch ev.Kind {
						case obs.KindIterStart, obs.KindIterEnd, obs.KindSwapDecision, obs.KindManagerAssign,
							obs.KindStateTransfer, obs.KindSwapAbort, obs.KindQuarantine:
							if ev.Epoch < epoch[ev.Rank] {
								t.Errorf("rank %d traced epoch %d after %d (%s)", ev.Rank, ev.Epoch, epoch[ev.Rank], ev.Kind)
							}
							epoch[ev.Rank] = ev.Epoch
						}
						switch ev.Kind {
						case obs.KindQuarantine:
							quarantined[ev.Peer] = true
						case obs.KindManagerAssign:
							if quarantined[ev.Peer] {
								t.Errorf("rank %d assigned after its quarantine", ev.Peer)
							}
						}
					}
					if !injected {
						t.Error("the fault never fired")
					}
				})
			}
		})
	}
}
