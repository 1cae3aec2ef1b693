package swaprt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs/series"
)

// wideDecide is a 64-rank decide request: 32 active ranks and 32 spares.
func wideDecide() *DecideRequest {
	req := &DecideRequest{Epoch: 1 << 40, Now: 12.5, IterTime: 3, SwapTime: 0.25}
	for r := 0; r < 32; r++ {
		req.ActiveSet = append(req.ActiveSet, r)
		req.ActiveRates = append(req.ActiveRates, 100+float64(r))
		req.SpareSet = append(req.SpareSet, 32+r)
		req.SpareRates = append(req.SpareRates, 1000-float64(r))
	}
	return req
}

func nonFiniteDecide() *DecideRequest {
	return &DecideRequest{Epoch: math.MaxUint64, Now: math.Inf(-1), ActiveSet: []int{-1, math.MaxInt64},
		ActiveRates: []float64{math.NaN(), math.Inf(1)}, SpareSet: []int{math.MinInt64},
		SpareRates: []float64{math.Copysign(0, -1)}, IterTime: math.NaN(), SwapTime: math.Inf(1)}
}

func telemetry(anomaly *series.Anomaly) *RankTelemetry {
	return &RankTelemetry{Rank: 3, Now: 7.25, Iters: 40,
		IterTime: series.Quantiles{N: 32, Mean: 1.5, P50: 1.25, P90: 2, P99: 2.5, Max: 3},
		Rate:     640, Anomalies: 2, LastAnomaly: anomaly}
}

// frameRequests is one request of every kind and shape the wire carries.
func frameRequests() map[string]wireRequest {
	return map[string]wireRequest{
		"decide":             {Kind: kindDecide, Decide: &DecideRequest{Epoch: 4, Now: 1, ActiveSet: []int{0, 1}, ActiveRates: []float64{100, 90}, SpareSet: []int{2}, SpareRates: []float64{1000}, IterTime: 1, SwapTime: 0.1}},
		"decide 64 ranks":    {Kind: kindDecide, Decide: wideDecide()},
		"decide non-finite":  {Kind: kindDecide, Decide: nonFiniteDecide()},
		"decide nil slices":  {Kind: kindDecide, Decide: &DecideRequest{Epoch: 2}},
		"short spare rates":  shortSpareRates,
		"report":             {Kind: kindReport, Report: &ReportMsg{Rank: 5, Now: 2, Rate: 300}},
		"report telemetry":   {Kind: kindReport, Report: &ReportMsg{Rank: 3, Now: 7.25, Rate: 640, Telemetry: telemetry(nil)}},
		"report anomaly":     {Kind: kindReport, Report: &ReportMsg{Rank: 3, Now: 7.25, Rate: 640, Telemetry: telemetry(&series.Anomaly{T: 7, Value: 3, Mean: 1.2, Std: 0.4, Z: math.Inf(1)})}},
		"outcome commit":     {Kind: kindOutcome, Outcome: &OutcomeMsg{Epoch: 9, Committed: true, NewSet: []int{2, 1}}},
		"outcome quarantine": {Kind: kindOutcome, Outcome: &OutcomeMsg{Epoch: 10, Quarantined: []int{3, 4}}},
		"ping":               {Kind: kindPing},
	}
}

func frameResponses() map[string]wireResponse {
	return map[string]wireResponse{
		"nothing": {},
		"error":   {Error: "swaprt: decide request with rate -1, want > 0"},
		"stay":    {Decide: &DecideResponse{}},
		"no eval": {Decide: &DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 3}, {Out: -1, In: math.MaxInt64}}}},
		"explained": {Decide: &DecideResponse{Swaps: []SwapDirective{{Out: 0, In: 1}}, Eval: &core.Explanation{
			Considered: 1, IterTime: 1, SwapTime: 0.1, OldPerf: 1e-300, NewPerf: 1e300, ProcGain: math.Inf(1),
			AppGain: math.Inf(1), Payback: 0.1, Verdict: "swap", Reason: "payback 0.1 iterations within threshold +Inf"}}},
		"stay explained": {Decide: &DecideResponse{Eval: &core.Explanation{Considered: 2, IterTime: math.NaN(),
			Payback: math.Inf(-1), Verdict: "stay", Reason: "spare not faster"}}},
	}
}

// TestManagerFrameRoundTrip: every request kind and the response
// survive a frame bit for bit. Floats cross as their IEEE bits, so NaN
// and -0 come back as they went; a nil and an empty slice both cross as
// a count of 0.
func TestManagerFrameRoundTrip(t *testing.T) {
	for name, req := range frameRequests() {
		frame := requestFrame(req)
		body, _, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
		if err != nil {
			t.Fatalf("%s: read frame: %v", name, err)
		}
		var sc wireScratch
		got, err := sc.decodeRequest(body)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if again := requestFrame(got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encodes to\n%x\nnot\n%x", name, again, frame)
		}
		if name != "decide non-finite" && !reflect.DeepEqual(got, req) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, req)
		}
	}
	for name, resp := range frameResponses() {
		frame := responseFrame(resp)
		got, err := readResponse(bufio.NewReader(bytes.NewReader(frame)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := responseFrame(got); !bytes.Equal(again, frame) {
			t.Fatalf("%s: re-encodes to\n%x\nnot\n%x", name, again, frame)
		}
		if name != "stay explained" && !reflect.DeepEqual(got, resp) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, resp)
		}
	}

	// A scratch reused across frames keeps nothing of the last one.
	var sc wireScratch
	for _, d := range []*DecideRequest{wideDecide(), {Epoch: 3, ActiveSet: []int{7}, ActiveRates: []float64{1}}, wideDecide()} {
		frame := requestFrame(wireRequest{Kind: kindDecide, Decide: d})
		got, err := sc.decodeRequest(frame[mgrFrameHdr:])
		if err != nil || !bytes.Equal(requestFrame(got), frame) {
			t.Fatalf("reused scratch decoded %+v, %v; want %+v", got.Decide, err, d)
		}
	}
	empty := requestFrame(wireRequest{Kind: kindOutcome, Outcome: &OutcomeMsg{NewSet: []int{}, Quarantined: []int{}}})
	if nilSets := requestFrame(wireRequest{Kind: kindOutcome, Outcome: &OutcomeMsg{}}); !bytes.Equal(empty, nilSets) {
		t.Fatalf("empty sets frame as %x, nil sets as %x", empty, nilSets)
	}
}

// flagTwo is an outcome body whose committed flag is 2.
var flagTwo = []byte{byte(kindOutcome), 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0}

// TestManagerFrameErrors sends broken frames over a real connection. A
// body that does not decode is refused and the connection serves on; a
// length over the bound or a frame cut short closes that connection,
// and only it.
func TestManagerFrameErrors(t *testing.T) {
	ln := serveForTest(t, newDurableManager(t))
	decide := requestFrame(frameRequests()["decide"])
	body := decide[mgrFrameHdr:]
	reframe := func(body []byte) []byte {
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	lying := patched(body, func(b []byte) { binary.LittleEndian.PutUint32(b[17:], 1<<30) })
	for _, tc := range []struct {
		name      string
		frame     []byte
		closeSend bool   // the client stops sending after the frame
		refusal   string // "": no answer, the connection closes
	}{
		{name: "truncated body", frame: reframe(body[:len(body)-3]), refusal: "truncated message"},
		{name: "trailing bytes", frame: reframe(append(body[:len(body):len(body)], 0, 0)), refusal: "2 trailing bytes"},
		{name: "count beyond the bytes", frame: reframe(lying), refusal: "truncated message"},
		{name: "flag neither 0 nor 1", frame: reframe(flagTwo), refusal: "malformed message"},
		{name: "unknown kind", frame: reframe([]byte{99}), refusal: "unknown request kind 99"},
		{name: "empty body", frame: reframe(nil), refusal: "truncated message"},
		{name: "oversize length", frame: binary.BigEndian.AppendUint32(nil, maxMgrFrame+1)},
		{name: "truncated frame", frame: decide[:len(decide)-5], closeSend: true},
		{name: "truncated header", frame: decide[:2], closeSend: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(tc.frame); err != nil {
				t.Fatal(err)
			}
			if tc.closeSend {
				_ = conn.(*net.TCPConn).CloseWrite()
			}
			br := bufio.NewReader(conn)
			resp, err := readResponse(br)
			if tc.refusal == "" {
				if err == nil {
					t.Fatalf("answered %+v, want the connection closed", resp)
				}
				if !errors.Is(err, io.EOF) && !strings.Contains(err.Error(), "reset") {
					t.Fatalf("read %v, want EOF", err)
				}
				if err := (&RemoteDecider{Addr: ln.Addr().String()}).Ping(); err != nil {
					t.Fatalf("the manager stopped serving other connections: %v", err)
				}
				return
			}
			if err != nil || !strings.Contains(resp.Error, tc.refusal) || resp.Decide != nil {
				t.Fatalf("answered %+v, %v; want a refusal naming %q", resp, err, tc.refusal)
			}
			if _, err := conn.Write(decide); err != nil {
				t.Fatal(err)
			}
			if resp, err = readResponse(br); err != nil || resp.Error != "" || resp.Decide == nil {
				t.Fatalf("the next frame on the connection got %+v, %v", resp, err)
			}
		})
	}
}

// TestRemoteDecideCarriesNonFiniteExplanation: a valid request whose
// rates overflow the process gain is answered, and the remote answer is
// the local one bit for bit, +Inf gains included.
func TestRemoteDecideCarriesNonFiniteExplanation(t *testing.T) {
	req := DecideRequest{Now: 1, ActiveSet: []int{0}, ActiveRates: []float64{1e-300},
		SpareSet: []int{1}, SpareRates: []float64{1e300}, IterTime: 1, SwapTime: 0.1}
	want, err := NewLocalDecider(core.Greedy()).Decide(req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Eval == nil || !math.IsInf(want.Eval.ProcGain, 1) || !math.IsInf(want.Eval.AppGain, 1) {
		t.Fatalf("local answer %+v: want +Inf gains", want.Eval)
	}
	ln := serveForTest(t, newDurableManager(t))
	got, err := (&RemoteDecider{Addr: ln.Addr().String()}).Decide(req)
	if err != nil {
		t.Fatalf("remote decide: %v", err)
	}
	if !reflect.DeepEqual(got.Swaps, want.Swaps) || got.Eval == nil {
		t.Fatalf("remote answer %+v, want %+v", got, want)
	}
	bits := func(e *core.Explanation) []uint64 {
		var out []uint64
		for _, x := range []float64{e.IterTime, e.SwapTime, e.OldPerf, e.NewPerf, e.ProcGain, e.AppGain, e.Payback} {
			out = append(out, math.Float64bits(x))
		}
		return out
	}
	if !reflect.DeepEqual(bits(got.Eval), bits(want.Eval)) || !reflect.DeepEqual(*got.Eval, *want.Eval) {
		t.Fatalf("remote explanation %+v, want %+v", *got.Eval, *want.Eval)
	}
}

// FuzzManagerFrame feeds arbitrary bytes as a request body to the
// manager in front of a durable manager: an error or an answer, never a
// panic; decoding allocates in proportion to the body; and a body that
// decodes, as a request or as a response, re-encodes to the same bytes.
func FuzzManagerFrame(f *testing.F) {
	reqs := frameRequests()
	for _, name := range []string{"short spare rates", "decide", "decide non-finite", "decide 64 ranks",
		"report anomaly", "outcome commit", "ping"} {
		f.Add(requestFrame(reqs[name])[mgrFrameHdr:])
	}
	decide := requestFrame(reqs["decide"])[mgrFrameHdr:]
	f.Add(decide[:len(decide)-1])                                                           // truncated
	f.Add(append(decide[:len(decide):len(decide)], 0))                                      // a trailing byte
	f.Add(patched(decide, func(b []byte) { binary.LittleEndian.PutUint32(b[17:], 1<<31) })) // a lying count
	f.Add(flagTwo)
	f.Add([]byte{99})
	f.Add([]byte{})
	f.Add(responseFrame(frameResponses()["explained"])[mgrFrameHdr:])

	f.Fuzz(func(t *testing.T, data []byte) {
		var sc wireScratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, rerr := sc.decodeRequest(data)
		resp, perr := decodeResponse(data)
		runtime.ReadMemStats(&after)
		// An int or a float is 8 bytes on the wire and in memory; a
		// report's telemetry and a decision are fixed-size; the slack is
		// the error values and whatever the fuzz worker's own goroutines
		// allocated meanwhile.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 3*uint64(len(data))+(64<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if rerr == nil {
			if again := requestFrame(req)[mgrFrameHdr:]; !bytes.Equal(again, data) {
				t.Fatalf("request %x re-encodes to %x", data, again)
			}
		}
		if perr == nil {
			if again := responseFrame(resp)[mgrFrameHdr:]; !bytes.Equal(again, data) {
				t.Fatalf("response %x re-encodes to %x", data, again)
			}
		}
		ans := sc.answer(data, newDurableManager(t), nil)
		if rerr == nil && req.Kind == kindDecide && ans.Error == "" && ans.Decide == nil {
			t.Fatalf("decide request %x got neither a decision nor an error", data)
		}
		if ans.Error != "" && ans.Decide != nil {
			t.Fatalf("request %x got both a decision and an error: %+v", data, ans)
		}
		if _, err := decodeResponse(responseFrame(ans)[mgrFrameHdr:]); err != nil {
			t.Fatalf("answer %+v does not decode: %v", ans, err)
		}
	})
}
