package predict

import (
	"math"
	"math/rand"
	"testing"
)

// scanHistory is the reference History: a plain slice scanned linearly
// from sample 0, as the package did before it kept cursors. The
// differential tests hold History to it.
type scanHistory []Sample

func (o scanHistory) window(now, window float64) []Sample {
	if window <= 0 {
		if n := len(o); n > 0 && o[n-1].T <= now {
			return o[n-1:]
		}
		return nil
	}
	i := 0
	for i < len(o) && o[i].T < now-window {
		i++
	}
	j := len(o)
	for j > i && o[j-1].T > now {
		j--
	}
	return o[i:j]
}

func (o scanHistory) pruneBefore(t float64) scanHistory {
	i := 0
	for i < len(o) && o[i].T < t {
		i++
	}
	return o[i:]
}

func (o scanHistory) trim(now, window float64) scanHistory {
	if window > 0 {
		return o.pruneBefore(now - window)
	}
	if len(o) > 0 {
		return o[len(o)-1:]
	}
	return o
}

// meanTolerance is how far a running mean may sit from the scanned one,
// relative to the window's mean magnitude.
const meanTolerance = 1e-12

// checkAgainstScan asks h and the oracle the same question and reports
// any difference in the window's samples or its mean.
func checkAgainstScan(t *testing.T, h *History, o scanHistory, now, window float64) {
	t.Helper()
	want := o.window(now, window)
	got := h.Window(now, window)
	if len(got) != len(want) {
		t.Fatalf("Window(%g, %g): %d samples, scan finds %d", now, window, len(got), len(want))
	}
	sum, mag := 0.0, 0.0
	for i, s := range want {
		if got[i] != s {
			t.Fatalf("Window(%g, %g)[%d] = %v, scan finds %v", now, window, i, got[i], s)
		}
		sum += s.V
		mag += math.Abs(s.V)
	}
	mean := h.WindowMean(now, window)
	if len(want) == 0 {
		if !math.IsNaN(mean) {
			t.Fatalf("WindowMean(%g, %g) = %g over an empty window, want NaN", now, window, mean)
		}
		return
	}
	n := float64(len(want))
	if diff := math.Abs(mean - sum/n); !(diff <= meanTolerance*mag/n) {
		t.Fatalf("WindowMean(%g, %g) = %.17g, scan gives %.17g (off by %g of the mean magnitude, %d samples)",
			now, window, mean, sum/n, diff/(mag/n), len(want))
	}
	if h.Len() != len(o) {
		t.Fatalf("Len = %d, scan holds %d", h.Len(), len(o))
	}
}

// historyOps interprets a byte string as a sequence of operations on a
// History and its oracle: sample times never decrease and often tie,
// the query time mostly follows the samples but steps backwards, the
// window changes between calls, and pruning interleaves with all of it.
func historyOps(t *testing.T, ops []byte) {
	var (
		h      History
		o      scanHistory
		last   float64 // time of the latest sample
		window = 4.0
	)
	for len(ops) >= 2 {
		op, arg := ops[0], float64(ops[1])
		ops = ops[2:]
		switch op % 8 {
		case 0, 1, 2: // a sample: arg/32 s later (arg < 8: a tie), value over 12 decades
			if arg >= 8 {
				last += arg / 32
			}
			v := math.Pow(10, float64(op/8)*12/31-3)
			h.Add(last, v)
			o = append(o, Sample{T: last, V: v})
			checkAgainstScan(t, &h, o, last, window)
		case 3: // the monitor's question, at the latest sample
			checkAgainstScan(t, &h, o, last, window)
		case 4: // now steps backwards (or a little ahead)
			checkAgainstScan(t, &h, o, last-arg/16+1, window)
		case 5: // the window changes; 0 is "latest only"
			window = arg / 8
			checkAgainstScan(t, &h, o, last, window)
		case 6:
			cut := last - arg/8
			h.PruneBefore(cut)
			o = o.pruneBefore(cut)
			checkAgainstScan(t, &h, o, last, window)
		case 7:
			h.Trim(last, window)
			o = o.trim(last, window)
			checkAgainstScan(t, &h, o, last, window)
		}
	}
}

func TestHistoryMatchesScan(t *testing.T) {
	rnd := rand.New(rand.NewSource(18))
	for round := 0; round < 200; round++ {
		ops := make([]byte, 2*(50+rnd.Intn(400)))
		rnd.Read(ops)
		historyOps(t, ops)
	}
}

func FuzzHistory(f *testing.F) {
	f.Add([]byte{0, 40, 0, 0, 8, 200, 3, 0, 4, 255, 5, 0, 6, 3, 7, 0, 16, 9})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, ops []byte) { historyOps(t, ops) })
}

// TestWindowMeanDoesNotDrift slides a window over 10⁶ samples whose
// values span twelve decades — bursts near 1e9 between long stretches
// near 1e-3, the case in which a plain running sum keeps the rounding
// of the large values after they have left — and holds the mean to the
// scan's along the monitor's pattern (Add, Trim, WindowMean).
func TestWindowMeanDoesNotDrift(t *testing.T) {
	const (
		samples = 1_000_000
		window  = 50.0 // seconds: ≈ 500 samples
	)
	rnd := rand.New(rand.NewSource(1))
	var h History
	var o scanHistory
	now := 0.0
	for i := 0; i < samples; i++ {
		now += 0.2 * rnd.Float64()
		v := 1e-3 * (1 + rnd.Float64())
		if i%1500 < 40 {
			v = math.Pow(10, -3+12*rnd.Float64())
		}
		h.Add(now, v)
		h.Trim(now, window)
		o = append(o, Sample{T: now, V: v}).trim(now, window)
		h.WindowMean(now, window)
		if i%16 == 0 { // the scan is the expensive side
			checkAgainstScan(t, &h, o, now, window)
		}
	}
	if got := cap(h.buf); got > 8*len(o) {
		t.Errorf("History holds %d samples in a buffer of %d", len(o), got)
	}
}

// TestWindowMeanCostIsFlat counts the samples the running sum touches:
// a monitor that adds one sample and asks for the mean pays for a
// constant number of them, whatever the window holds — from its first
// question on.
func TestWindowMeanCostIsFlat(t *testing.T) {
	for _, n := range []int{256, 20000} {
		var h History
		now := 0.0
		for i := 0; i < n; i++ {
			now += 1e-4
			h.Add(now, 1000)
		}
		// The sum followed the samples in: the first question moves nothing.
		if before := h.ops; h.WindowMean(now, 300) != 1000 || h.ops != before {
			t.Errorf("history of %d: the first WindowMean summed again (%d updates before, %d after)", n, before, h.ops)
		}
		const calls = 10000
		touched := 0
		for i := 0; i < calls; i++ {
			now += 1e-4
			before := h.ops
			h.Add(now, 1000)
			h.WindowMean(now, 300)
			if h.ops >= before {
				touched += h.ops - before
			} else {
				touched += h.hi - h.lo // the sum was retaken from scratch
			}
		}
		if per := float64(touched) / calls; per > 3 {
			t.Errorf("history of %d: %.2f samples summed per WindowMean, want a constant <= 3", n, per)
		}
	}
}

// An infinite sample poisons a running sum for good (Inf - Inf); the
// mean has to recover once the sample has left the window.
func TestWindowMeanRecoversFromInf(t *testing.T) {
	var h History
	for i, v := range []float64{1, 2, math.Inf(1), 4, 5, 6, 7, 8} {
		h.Add(float64(i), v)
		h.WindowMean(float64(i), 2.5)
	}
	if got := h.WindowMean(7, 2.5); got != 7 {
		t.Fatalf("WindowMean over {6, 7, 8} after an Inf passed through = %g, want 7", got)
	}
}
