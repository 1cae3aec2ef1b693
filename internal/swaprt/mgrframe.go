package swaprt

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/obs/series"
)

// The manager's wire (RemoteDecider ⇄ ServeManager) carries one frame
// each way per call: a 4-byte big-endian body length, at most
// maxMgrFrame, in front of a body written in the swap protocol's
// discipline — little-endian fixed-width fields, integers as int64,
// floats as their IEEE bits (±Inf and NaN cross unchanged), and every
// count checked against the bytes that follow before anything is
// allocated. Every flag is 0 or 1 and nothing may trail the last field,
// so a body that decodes re-encodes to the same bytes.
//
//	request   u8 kind, then by kind
//	  decide    u64 epoch, f64 now, ints active set, f64s active rates,
//	            ints spare set, f64s spare rates, f64 iter time, f64 swap time
//	  report    int rank, f64 now, f64 rate, u8 has telemetry [telemetry]
//	  outcome   u64 epoch, u8 committed, ints new set, ints quarantined
//	  ping      nothing
//	response  str error, u8 has decision [u32 n, n × (int out, int in),
//	          u8 has eval [eval]]
//	telemetry int rank, f64 now, int iters, int n, f64 mean/p50/p90/p99/max,
//	          f64 rate, int anomalies, u8 has anomaly [f64 t/value/mean/std/z]
//	eval      int considered, f64 iter/swap/old/new/proc gain/app gain/
//	          payback, str verdict, str reason
//	ints/f64s u32 n, n × 8 bytes;  str  u32 n, n bytes
//
// A body that fails to decode is answered with an error and the
// connection keeps serving: its frame was intact. A length over the
// bound or a frame cut short ends the connection, because the next frame
// can no longer be found.

const (
	mgrFrameHdr = 4
	// maxMgrFrame bounds one body, so a hostile length cannot make either
	// end allocate: a 64-rank decide is about 2 KiB.
	maxMgrFrame = 1 << 20
)

// wireKind is a request's kind: one of Decider's four calls.
type wireKind uint8

const (
	kindDecide wireKind = iota + 1
	kindReport
	kindOutcome
	kindPing
)

var kindNames = [...]string{kindDecide: "decide", kindReport: "report", kindOutcome: "outcome", kindPing: "ping"}

// String implements fmt.Stringer.
func (k wireKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// wireRequest is one request on the manager's wire: the body its kind
// names is set, the others are nil.
type wireRequest struct {
	Kind    wireKind
	Decide  *DecideRequest
	Report  *ReportMsg
	Outcome *OutcomeMsg
}

// wireResponse answers a wireRequest: a decision (decide only), an
// error, or neither.
type wireResponse struct {
	Decide *DecideResponse
	Error  string
}

var errMalformed = errors.New("swaprt: malformed message")

// appendFrame appends a frame around the body that add appends.
func appendFrame(buf []byte, add func([]byte) []byte) ([]byte, error) {
	buf = add(append(buf[:0], 0, 0, 0, 0))
	n := len(buf) - mgrFrameHdr
	if n > maxMgrFrame {
		return buf, fmt.Errorf("swaprt: manager frame of %d bytes exceeds %d", n, maxMgrFrame)
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	return buf, nil
}

// readFrame reads one frame and returns its body, in buf when it fits.
// started reports whether any byte of the frame arrived before an error.
func readFrame(br *bufio.Reader, buf []byte) (body []byte, started bool, err error) {
	if cap(buf) < mgrFrameHdr {
		buf = make([]byte, 512)
	}
	n, err := io.ReadFull(br, buf[:mgrFrameHdr])
	if err != nil {
		return buf, n > 0, err
	}
	size := binary.BigEndian.Uint32(buf[:mgrFrameHdr])
	if size > maxMgrFrame {
		return buf, true, fmt.Errorf("swaprt: manager frame of %d bytes exceeds %d", size, maxMgrFrame)
	}
	if cap(buf) < int(size) {
		buf = make([]byte, size)
	}
	if _, err := io.ReadFull(br, buf[:size]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf, true, err
	}
	return buf[:size], true, nil
}

func appendRequest(b []byte, req *wireRequest) []byte {
	b = append(b, byte(req.Kind))
	switch req.Kind {
	case kindDecide:
		d := req.Decide
		b = binary.LittleEndian.AppendUint64(b, d.Epoch)
		b = appendF64(b, d.Now)
		b = appendInts(b, d.ActiveSet)
		b = appendF64s(b, d.ActiveRates)
		b = appendInts(b, d.SpareSet)
		b = appendF64s(b, d.SpareRates)
		b = appendF64(b, d.IterTime)
		b = appendF64(b, d.SwapTime)
	case kindReport:
		r := req.Report
		b = appendInt(b, r.Rank)
		b = appendF64(b, r.Now)
		b = appendF64(b, r.Rate)
		b = appendFlag(b, r.Telemetry != nil)
		if t := r.Telemetry; t != nil {
			b = appendInt(b, t.Rank)
			b = appendF64(b, t.Now)
			b = appendInt(b, t.Iters)
			q := t.IterTime
			b = appendInt(b, q.N)
			for _, x := range [...]float64{q.Mean, q.P50, q.P90, q.P99, q.Max, t.Rate} {
				b = appendF64(b, x)
			}
			b = appendInt(b, t.Anomalies)
			b = appendFlag(b, t.LastAnomaly != nil)
			if a := t.LastAnomaly; a != nil {
				for _, x := range [...]float64{a.T, a.Value, a.Mean, a.Std, a.Z} {
					b = appendF64(b, x)
				}
			}
		}
	case kindOutcome:
		o := req.Outcome
		b = binary.LittleEndian.AppendUint64(b, o.Epoch)
		b = appendFlag(b, o.Committed)
		b = appendInts(b, o.NewSet)
		b = appendInts(b, o.Quarantined)
	}
	return b
}

func appendResponse(b []byte, resp *wireResponse) []byte {
	b = appendStr(b, resp.Error)
	b = appendFlag(b, resp.Decide != nil)
	if d := resp.Decide; d != nil {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Swaps)))
		for _, sw := range d.Swaps {
			b = appendInt(b, sw.Out)
			b = appendInt(b, sw.In)
		}
		b = appendFlag(b, d.Eval != nil)
		if e := d.Eval; e != nil {
			b = appendInt(b, e.Considered)
			for _, x := range [...]float64{e.IterTime, e.SwapTime, e.OldPerf, e.NewPerf, e.ProcGain, e.AppGain, e.Payback} {
				b = appendF64(b, x)
			}
			b = appendStr(b, e.Verdict)
			b = appendStr(b, e.Reason)
		}
	}
	return b
}

// wireScratch is what one served connection decodes requests into: a
// decide's and an outcome's slices keep their backing arrays from frame
// to frame, which the Decider contract allows (a decider reads a
// request's slices only until it returns). A report's telemetry is
// allocated per report, because the telemetry hub keeps it.
type wireScratch struct {
	decide  DecideRequest
	report  ReportMsg
	outcome OutcomeMsg
	resp    DecideResponse
}

// decodeRequest decodes one request body into sc.
func (sc *wireScratch) decodeRequest(body []byte) (wireRequest, error) {
	r := reader{b: body}
	req := wireRequest{Kind: wireKind(r.u8())}
	switch req.Kind {
	case kindDecide:
		d := &sc.decide
		d.Epoch = r.u64()
		d.Now = r.f64()
		d.ActiveSet = r.ints(d.ActiveSet)
		d.ActiveRates = r.f64s(d.ActiveRates)
		d.SpareSet = r.ints(d.SpareSet)
		d.SpareRates = r.f64s(d.SpareRates)
		d.IterTime = r.f64()
		d.SwapTime = r.f64()
		req.Decide = d
	case kindReport:
		rep := &sc.report
		*rep = ReportMsg{Rank: r.int(), Now: r.f64(), Rate: r.f64()}
		if r.flag() {
			t := &RankTelemetry{Rank: r.int(), Now: r.f64(), Iters: r.int()}
			t.IterTime = series.Quantiles{N: r.int(), Mean: r.f64(), P50: r.f64(), P90: r.f64(), P99: r.f64(), Max: r.f64()}
			t.Rate = r.f64()
			t.Anomalies = r.int()
			if r.flag() {
				t.LastAnomaly = &series.Anomaly{T: r.f64(), Value: r.f64(), Mean: r.f64(), Std: r.f64(), Z: r.f64()}
			}
			rep.Telemetry = t
		}
		req.Report = rep
	case kindOutcome:
		o := &sc.outcome
		o.Epoch = r.u64()
		o.Committed = r.flag()
		o.NewSet = r.ints(o.NewSet)
		o.Quarantined = r.ints(o.Quarantined)
		req.Outcome = o
	case kindPing:
	default:
		if r.err == nil {
			return wireRequest{}, fmt.Errorf("swaprt: unknown request kind %d", uint8(req.Kind))
		}
	}
	if err := r.end(); err != nil {
		return wireRequest{}, fmt.Errorf("swaprt: decode %s request: %w", req.Kind, err)
	}
	return req, nil
}

// decodeResponse decodes one response body into memory of its own: the
// caller keeps the decision.
func decodeResponse(body []byte) (wireResponse, error) {
	r := reader{b: body}
	resp := wireResponse{Error: r.str()}
	if r.flag() {
		d := &DecideResponse{}
		if n := r.count(16); n > 0 {
			d.Swaps = make([]SwapDirective, n)
			for i := range d.Swaps {
				d.Swaps[i] = SwapDirective{Out: r.int(), In: r.int()}
			}
		}
		if r.flag() {
			d.Eval = &core.Explanation{Considered: r.int(), IterTime: r.f64(), SwapTime: r.f64(),
				OldPerf: r.f64(), NewPerf: r.f64(), ProcGain: r.f64(), AppGain: r.f64(), Payback: r.f64(),
				Verdict: r.str(), Reason: r.str()}
		}
		resp.Decide = d
	}
	if err := r.end(); err != nil {
		return wireResponse{}, fmt.Errorf("swaprt: decode manager response: %w", err)
	}
	return resp, nil
}

func appendF64(b []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
}

func appendInt(b []byte, x int) []byte { return binary.LittleEndian.AppendUint64(b, uint64(int64(x))) }

func appendFlag(b []byte, x bool) []byte {
	if x {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendInt(b, x)
	}
	return b
}

func appendF64s(b []byte, xs []float64) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(xs)))
	for _, x := range xs {
		b = appendF64(b, x)
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) int() int { return int(int64(r.u64())) }

// flag reads a bool: a byte that is neither 0 nor 1 is malformed.
func (r *reader) flag() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	if r.err == nil {
		r.err = errMalformed
	}
	return false
}

// count reads a u32 element count and checks that the bytes left hold
// that many elements of width bytes, so nothing is allocated on a lie.
func (r *reader) count(width int) int {
	n := uint64(r.u32())
	if r.err == nil && n*uint64(width) > uint64(len(r.b)) {
		r.err = errTruncated
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// ints reads a counted []int into dst's backing array.
func (r *reader) ints(dst []int) []int {
	n := r.count(8)
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = r.int()
	}
	return dst
}

// f64s reads a counted []float64 into dst's backing array.
func (r *reader) f64s(dst []float64) []float64 {
	n := r.count(8)
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = r.f64()
	}
	return dst
}

// str reads a counted string. The verdicts a decision carries are
// interned: a decide answer need not allocate for them.
func (r *reader) str() string {
	b := r.take(r.count(1))
	switch string(b) {
	case "":
		return ""
	case "swap":
		return "swap"
	case "stay":
		return "stay"
	}
	return string(b)
}

// end reports the first decode error, or trailing bytes after the last
// field.
func (r *reader) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", errMalformed, len(r.b))
	}
	return r.err
}
