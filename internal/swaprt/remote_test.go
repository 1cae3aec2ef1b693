package swaprt

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/swaprt/mgrstore"
)

// shortSpareRates is a decide request a peer can send that names two
// spares and one spare rate. It used to panic the durable manager
// (index out of range in DurableDecider.Decide) inside serveConn's
// goroutine, taking the whole process down.
const shortSpareRates = `{"kind":"decide","decide":{"epoch":0,"now":1,` +
	`"active_set":[0,1],"active_rates":[100,100],` +
	`"spare_set":[2,3],"spare_rates":[1000],"iter_time":1,"swap_time":0.1}}`

func newDurableManager(t testing.TB) *DurableDecider {
	t.Helper()
	d, err := NewDurableDecider(NewLocalDecider(core.Greedy()), mgrstore.NewMemStore(clock.Real{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// serveForTest serves decider on a loopback listener, counting the
// connections it accepts, until the test ends.
func serveForTest(t *testing.T, decider Decider) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	cl := &countingListener{Listener: ln}
	go func() { _ = ServeManager(cl, decider, nil) }()
	return cl
}

type countingListener struct {
	net.Listener
	accepts atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return conn, err
}

// echoDecider swaps a decide request's first active rank for its first
// spare: an answer that names the request it answers.
type echoDecider struct{ StayDecider }

func (echoDecider) Decide(req DecideRequest) (DecideResponse, error) {
	return DecideResponse{Swaps: []SwapDirective{{Out: req.ActiveSet[0], In: req.SpareSet[0]}}}, nil
}

func echoRequest(out, in int) DecideRequest {
	return DecideRequest{ActiveSet: []int{out}, ActiveRates: []float64{100},
		SpareSet: []int{in}, SpareRates: []float64{1000}, IterTime: 1, SwapTime: 0.1}
}

// TestManagerRejectsMalformedDecideRequest sends the request over a real
// connection: the manager must answer with an error and keep serving,
// that connection included.
func TestManagerRejectsMalformedDecideRequest(t *testing.T) {
	ln := serveForTest(t, newDurableManager(t))

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(shortSpareRates)); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var resp wireResponse
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no response to a malformed request: %v", err)
	}
	if !strings.Contains(resp.Error, "mismatched rate vectors") || resp.Decide != nil {
		t.Fatalf("response = %+v, want a mismatched-rate-vectors error", resp)
	}
	if err := json.NewEncoder(conn).Encode(wireRequest{Kind: "decide", Decide: &DecideRequest{
		ActiveSet: []int{0, 1}, ActiveRates: []float64{100, 100},
		SpareSet: []int{2}, SpareRates: []float64{1000}, IterTime: 1, SwapTime: 0.1}}); err != nil {
		t.Fatal(err)
	}
	resp = wireResponse{}
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no answer to a valid request after a malformed one on the same connection: %v", err)
	}
	if resp.Error != "" || resp.Decide == nil || len(resp.Decide.Swaps) != 1 {
		t.Fatalf("response = %+v, want one swap", resp)
	}
	if err := (&RemoteDecider{Addr: ln.Addr().String()}).Ping(); err != nil {
		t.Fatalf("manager stopped serving after a malformed request: %v", err)
	}
}

// TestRemoteDeciderReusesOneConnection: sequential calls share one kept
// connection, so the manager accepts once for all of them.
func TestRemoteDeciderReusesOneConnection(t *testing.T) {
	ln := serveForTest(t, newDurableManager(t))
	d := &RemoteDecider{Addr: ln.Addr().String()}
	for epoch := uint64(0); epoch < 100; epoch++ {
		resp, err := d.Decide(decideReq(epoch, 2))
		if err != nil || len(resp.Swaps) != 1 {
			t.Fatalf("epoch %d: decide = %+v, %v; want one swap", epoch, resp.Swaps, err)
		}
		if err := d.ReportOutcome(OutcomeMsg{Epoch: epoch + 1, Committed: true, NewSet: []int{2, 1}}); err != nil {
			t.Fatalf("epoch %d: outcome: %v", epoch+1, err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("the manager accepted %d connections for 200 calls, want 1", n)
	}
}

// TestRemoteDeciderConcurrentCalls: callers that overlap dial their own
// connections and share the kept one; no caller reads another's answer.
func TestRemoteDeciderConcurrentCalls(t *testing.T) {
	ln := serveForTest(t, echoDecider{})
	d := &RemoteDecider{Addr: ln.Addr().String()}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				out, in := 100*g+i, 10000+100*g+i
				switch i % 4 {
				case 0:
					resp, err := d.Decide(echoRequest(out, in))
					if err != nil || len(resp.Swaps) != 1 || resp.Swaps[0] != (SwapDirective{Out: out, In: in}) {
						t.Errorf("caller %d call %d: decide = %+v, %v; want %d out, %d in", g, i, resp.Swaps, err, out, in)
					}
				case 1:
					kind := fmt.Sprintf("bogus-%d-%d", g, i)
					if _, err := d.roundTrip(wireRequest{Kind: kind}); err == nil || !strings.Contains(err.Error(), kind) {
						t.Errorf("caller %d call %d: unknown kind %q answered with %v", g, i, kind, err)
					}
				case 2:
					if err := d.Report(ReportMsg{Rank: out, Now: float64(i), Rate: 100}); err != nil {
						t.Errorf("caller %d call %d: report: %v", g, i, err)
					}
				case 3:
					if err := d.Ping(); err != nil {
						t.Errorf("caller %d call %d: ping: %v", g, i, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestRemoteDeciderAgainstOneShotServer: a daemon that answers one
// request per connection and hangs up, as swapmgr used to, still answers
// every call — the kept connection is found closed and redialled.
func TestRemoteDeciderAgainstOneShotServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var req wireRequest
			if json.NewDecoder(conn).Decode(&req) == nil {
				_ = json.NewEncoder(conn).Encode(answer(req, echoDecider{}, func(string, ...any) {}))
			}
			conn.Close()
		}
	}()
	d := &RemoteDecider{Addr: ln.Addr().String(), Timeout: 5 * time.Second}
	for i := 0; i < 20; i++ {
		resp, err := d.Decide(echoRequest(i, 100+i))
		if err != nil || len(resp.Swaps) != 1 || resp.Swaps[0] != (SwapDirective{Out: i, In: 100 + i}) {
			t.Fatalf("call %d: decide = %+v, %v", i, resp.Swaps, err)
		}
	}
}

// TestKilledManagerAnswersNothing holds two connections to incarnation A
// across Kill — the one a RemoteDecider keeps and a raw one A accepted
// but was never asked on. A killed manager is a dead process: a request
// sent on either afterwards finds the connection closed, not answered.
// The client then reaches the successor through Resolve.
func TestKilledManagerAnswersNothing(t *testing.T) {
	const ttl = 30 * time.Millisecond
	// On a fake clock the lease lasts until the test expires it.
	fk := clock.NewFake()
	sup, err := StartManagerSupervisor(SupervisorConfig{
		Dir: t.TempDir(), Policy: core.Greedy(), LeaseTTL: ttl, Clock: fk,
		Timeout: time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	addrA := sup.Addr()
	raw, err := net.Dial("tcp", addrA)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rdA, err := sup.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	// A accepts in order: once it has answered this, raw is accepted too.
	if err := rdA.Ping(); err != nil {
		t.Fatal(err)
	}
	if again, err := sup.Resolve(); err != nil || again != rdA {
		t.Fatalf("Resolve on an unchanged lease = %v, %v; want the same decider", again, err)
	}

	// The successor comes up once the killed leader's lease has expired.
	sup.Kill(true, ttl)

	_ = raw.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Write([]byte(`{"kind":"ping"}` + "\n")); err == nil {
		var resp wireResponse
		err = json.NewDecoder(raw).Decode(&resp)
		if err == nil {
			t.Fatalf("killed incarnation answered %+v on a connection it had accepted", resp)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatal("killed incarnation left an accepted connection open")
		}
	}
	if err := rdA.Ping(); err == nil {
		t.Fatal("a ping reached the killed incarnation")
	}

	fk.Advance(ttl)
	waitUntil(t, "the successor", func() bool { return sup.Recoveries() >= 2 && sup.Addr() != "" })
	rdB, err := sup.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if sup.Addr() == addrA || rdB == rdA {
		t.Fatalf("successor at %s resolved to the killed incarnation's decider", sup.Addr())
	}
	if err := rdB.Ping(); err != nil {
		t.Fatalf("ping the successor: %v", err)
	}
}

// FuzzServeManagerRequest feeds arbitrary JSON to the manager's request
// handler in front of a durable manager: whatever a peer sends, the
// answer is a decision or an error, never a panic.
func FuzzServeManagerRequest(f *testing.F) {
	for _, seed := range []string{
		shortSpareRates,
		`{"kind":"decide","decide":{"epoch":0,"now":1,"active_set":[0,1],"active_rates":[100,100],"spare_set":[2],"spare_rates":[1000],"iter_time":1,"swap_time":0.1}}`,
		`{"kind":"decide","decide":{"epoch":7,"active_set":[0,0],"active_rates":[-1,1e308],"spare_set":[0],"spare_rates":[0],"iter_time":1e-300,"swap_time":-1}}`,
		`{"kind":"decide"}`,
		`{"kind":"report","report":{"rank":-3,"now":-1,"rate":0}}`,
		`{"kind":"outcome","outcome":{"epoch":1,"committed":true,"new_set":[2,1],"quarantined":[3,3,-1]}}`,
		`{"kind":"outcome","outcome":{"epoch":18446744073709551615}}`,
		`{"kind":"ping"}`,
		`{"kind":"resize"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	logf := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wireRequest
		if json.Unmarshal(data, &req) != nil {
			return // serveConn drops the connection without an answer
		}
		resp := answer(req, newDurableManager(t), logf)
		if req.Kind == "decide" && resp.Error == "" && resp.Decide == nil {
			t.Fatalf("decide request %s got neither a decision nor an error", data)
		}
		if resp.Error != "" && resp.Decide != nil {
			t.Fatalf("request %s got both a decision and an error: %+v", data, resp)
		}
	})
}
