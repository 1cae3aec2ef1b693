package swaprt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// Offsets inside a blob whose first (or only) variable is named "x".
const (
	xKindAt    = stateHdrLen + 2 + 1
	xWidthAt   = xKindAt + 1
	xCountAt   = xWidthAt + 1
	xPayloadAt = xCountAt + 8
)

func encodeOne(t testing.TB, name string, ptr any) []byte {
	t.Helper()
	ss := newStateSet()
	ss.register(name, ptr)
	blob, err := ss.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// patched returns a copy of blob with edit applied.
func patched(blob []byte, edit func(b []byte)) []byte {
	b := append([]byte(nil), blob...)
	edit(b)
	return b
}

// TestStateDecodeRejects: the blob is input from another process. A
// frame that does not match the local registration in kind and element
// width, a count the bytes do not back, and a blob in another format are
// errors that say what was wrong — never a reinterpretation, a large
// allocation or a panic.
func TestStateDecodeRejects(t *testing.T) {
	f64 := []float64{1.5, -2.5, 3.5}
	f64Blob := encodeOne(t, "x", &f64)
	scalar := 2.5
	scalarBlob := encodeOne(t, "x", &scalar)
	flag := true
	boolBlob := encodeOne(t, "x", &flag)
	zeroGrid := make([]float64, 100)
	zerosBlob := encodeOne(t, "x", &zeroGrid)
	if len(zerosBlob) >= 800 {
		t.Fatalf("all-zero grid encoded to %d bytes, want a count only", len(zerosBlob))
	}

	// What the runtime wrote before this format: one gob stream of the
	// sorted names, then each value.
	var old bytes.Buffer
	enc := gob.NewEncoder(&old)
	if err := enc.Encode([]string{"x"}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(&f64); err != nil {
		t.Fatal(err)
	}

	var (
		f32Target  []float32
		i64Target  []int64
		u64Target  []uint64
		f64Target  []float64
		f64Scalar  float64
		boolTarget bool
		mapTarget  map[string]int
		other      int
	)
	for _, tc := range []struct {
		name   string
		blob   []byte
		target any
		want   string
	}{
		{"float64 bytes into []float32", f64Blob, &f32Target, "received []float64, registered []float32"},
		{"float64 bytes into []int64", f64Blob, &i64Target, "received []float64, registered []int64"},
		{"float64 bytes into []uint64", f64Blob, &u64Target, "received []float64, registered []uint64"},
		{"slice into scalar", f64Blob, &f64Scalar, "received []float64, registered float64"},
		{"scalar into slice", scalarBlob, &f64Target, "received float64, registered []float64"},
		{"raw into gob target", f64Blob, &mapTarget, "received []float64, registered gob value"},
		{"width that is not the type's", patched(f64Blob, func(b []byte) { b[xWidthAt] = 4 }), &f64Target, "received []float32, registered []float64"},
		{"unknown kind", patched(f64Blob, func(b []byte) { b[xKindAt] = 0x1f }), &f64Target, "received kind(0x1f)"},
		{"count beyond the bytes", patched(f64Blob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt:], 1<<40) }), &f64Target, "bytes left"},
		{"count that overflows", patched(f64Blob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt:], math.MaxUint64) }), &f64Target, "bytes left"},
		{"count short of the bytes", patched(f64Blob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt:], 2) }), &f64Target, "truncated"},
		{"scalar with no element", patched(scalarBlob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt:], 0) }), &f64Scalar, "scalar with count 0"},
		{"zeros count above the limit", patched(zerosBlob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt:], 1<<40) }), &f64Target, "exceed"},
		{"zeros before the payload that overflow the count", patched(zerosBlob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt+8:], 101) }), &f64Target, "of 100"},
		{"payload claimed inside the zeros", patched(zerosBlob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt+16:], 1) }), &f64Target, "of 100"},
		{"lead that wraps", patched(zerosBlob, func(b []byte) { binary.LittleEndian.PutUint64(b[xCountAt+8:], math.MaxUint64) }), &f64Target, "of 100"},
		{"trimmed flag on a scalar", patched(scalarBlob, func(b []byte) { b[xKindAt] |= kindTrimmed }), &f64Scalar, "received float64 (trimmed), registered float64"},
		{"bool that is neither 0 nor 1", patched(boolBlob, func(b []byte) { b[xPayloadAt] = 2 }), &boolTarget, "bool with value 2"},
		{"pre-format gob checkpoint", old.Bytes(), &f64Target, "unsupported state format"},
		{"future version", patched(f64Blob, func(b []byte) { b[len(stateMagic)]++ }), &f64Target, "unsupported state format"},
		{"empty", nil, &f64Target, "unsupported state format"},
		{"truncated payload", f64Blob[:xPayloadAt+10], &f64Target, "bytes left"},
		{"truncated header", f64Blob[:xKindAt], &f64Target, "truncated"},
		{"trailing bytes", append(append([]byte(nil), f64Blob...), 0), &f64Target, "trailing"},
		{"gob section nobody registered for", patched(append(f64Blob[:len(f64Blob):len(f64Blob)], 1, 2, 3), func(b []byte) { b[len(b)-11] = 3 }), &f64Target, "no gob variable registered"},
		{"two variables into one", patched(f64Blob, func(b []byte) { b[len(stateMagic)+1] = 2 }), &f64Target, "received 2 variables"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ss := newStateSet()
			ss.register("x", tc.target)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := ss.decode(tc.blob)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("decode = %v, want an error containing %q", err, tc.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("rejecting a %d-byte blob allocated %d bytes", len(tc.blob), got)
			}
		})
	}

	ss := newStateSet()
	ss.register("y", &other)
	if err := ss.decode(f64Blob); err == nil || !strings.Contains(err.Error(), `received "x", registered [y]`) {
		t.Fatalf("decode under another name = %v", err)
	}
}

// benchMeta is the struct the benchmark's live workloads register.
type benchMeta struct {
	Seed  int64
	Step  int64
	Pos   int32
	Label string
}

// rawKinds is one variable of every raw kind, a struct that is flattened
// into four more, plus a gob one so the two sections are exercised
// together.
type rawKinds struct {
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	UP  uintptr
	F32 float32
	F64 float64
	B   bool
	S   string

	Bytes []byte
	SI    []int
	SI8   []int8
	SI16  []int16
	SI32  []int32
	SI64  []int64
	SU    []uint
	SU16  []uint16
	SU32  []uint32
	SU64  []uint64
	SUP   []uintptr
	SF32  []float32
	SF64  []float64

	Meta benchMeta

	Gob map[string][]int
}

// register hands every field to ss under its field name.
func (k *rawKinds) register(ss *stateSet) {
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		ss.register(v.Type().Field(i).Name, v.Field(i).Addr().Interface())
	}
}

// The float values a value-based codec gets wrong.
var (
	oddF64 = []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000c0ffee),
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	oddF32 = []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0xffa0beef), math.SmallestNonzeroFloat32}
)

// fillSlice sets the slice v to n elements: zeros outside [from, to),
// random inside with the odd floats mixed in.
func fillSlice(rng *rand.Rand, v reflect.Value, n, from, to int) {
	s := reflect.MakeSlice(v.Type(), n, n+rng.Intn(3))
	for i := from; i < to; i++ {
		e := s.Index(i)
		switch e.Kind() {
		case reflect.Float64:
			if rng.Intn(3) == 0 {
				e.SetFloat(oddF64[rng.Intn(len(oddF64))])
			} else {
				e.SetFloat(math.Float64frombits(rng.Uint64()))
			}
		case reflect.Float32:
			if rng.Intn(3) == 0 {
				e.Set(reflect.ValueOf(oddF32[rng.Intn(len(oddF32))]))
			} else {
				e.Set(reflect.ValueOf(math.Float32frombits(rng.Uint32())))
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			e.SetInt(int64(rng.Uint64()) >> (64 - e.Type().Bits()))
		default:
			e.SetUint(rng.Uint64() >> (64 - e.Type().Bits()))
		}
	}
	v.Set(s)
}

func randomKinds(rng *rand.Rand) *rawKinds {
	k := &rawKinds{
		I: int(rng.Uint64()), I8: int8(rng.Uint64()), I16: int16(rng.Uint64()), I32: int32(rng.Uint64()), I64: int64(rng.Uint64()),
		U: uint(rng.Uint64()), U8: uint8(rng.Uint64()), U16: uint16(rng.Uint64()), U32: uint32(rng.Uint64()), U64: rng.Uint64(),
		UP:  uintptr(rng.Uint64()),
		F32: oddF32[rng.Intn(len(oddF32))], F64: oddF64[rng.Intn(len(oddF64))],
		B: rng.Intn(2) == 0, S: strings.Repeat("état ", rng.Intn(4)),
		Meta: benchMeta{Seed: rng.Int63(), Step: int64(rng.Intn(2)), Pos: int32(rng.Uint64()), Label: strings.Repeat("m", rng.Intn(3))},
		Gob:  map[string][]int{"k": {rng.Int()}},
	}
	v := reflect.ValueOf(k).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n := 1 + rng.Intn(40)
			switch rng.Intn(5) {
			case 0: // stays nil
			case 1:
				fillSlice(rng, f, 0, 0, 0) // empty, not nil
			case 2:
				fillSlice(rng, f, n, 0, 0) // unwritten
			case 3:
				from := rng.Intn(n)
				fillSlice(rng, f, n, from, from+rng.Intn(n-from)+1) // written in the middle
			default:
				fillSlice(rng, f, n, 0, n)
			}
		}
	}
	return k
}

// sameBits compares two values of a raw kind, or structs of them, bit for
// bit (a NaN equals itself, -0 does not equal 0), treating nil and empty
// slices alike.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Float32: // not through Float(): widening quiets a signalling NaN
		return math.Float32bits(a.Interface().(float32)) == math.Float32bits(b.Interface().(float32))
	case reflect.Map:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
	return a.Interface() == b.Interface()
}

// TestStateRawKindsRoundTrip: every raw kind comes back bit for bit —
// NaN payloads, -0, the infinities, nil, empty and all-zero slices —
// into a receiver that holds other values of other lengths. A slice that
// fits the receiver's backing array stays in it, and nothing the
// receiver held is reachable behind the new length.
func TestStateRawKindsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20030623))
	for round := 0; round < 300; round++ {
		src, dst := randomKinds(rng), randomKinds(rng)
		a, b := newStateSet(), newStateSet()
		src.register(a)
		dst.register(b)

		dv := reflect.ValueOf(dst).Elem()
		caps := make([]int, dv.NumField())
		for i := range caps {
			if f := dv.Field(i); f.Kind() == reflect.Slice {
				caps[i] = f.Cap()
			}
		}
		want, err := a.encodedSize()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := a.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != want {
			t.Fatalf("round %d: encodedSize said %d, encode wrote %d", round, want, len(blob))
		}
		if err := b.decode(blob); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		sv := reflect.ValueOf(src).Elem()
		for i := 0; i < sv.NumField(); i++ {
			name, got := sv.Type().Field(i).Name, dv.Field(i)
			if !sameBits(sv.Field(i), got) {
				t.Fatalf("round %d: %s = %v, want %v", round, name, got, sv.Field(i))
			}
			if got.Kind() != reflect.Slice {
				continue
			}
			if got.Len() <= caps[i] && got.Cap() != caps[i] {
				t.Fatalf("round %d: %s: %d elements fit the receiver's capacity %d, yet it was reallocated (cap %d)",
					round, name, got.Len(), caps[i], got.Cap())
			}
			tail := got.Slice(got.Len(), got.Cap())
			for j := 0; j < tail.Len(); j++ {
				if !tail.Index(j).IsZero() {
					t.Fatalf("round %d: %s keeps the receiver's old element %v behind its new length", round, name, tail.Index(j))
				}
			}
		}
		// The decoded state encodes to the same bytes.
		again, err := b.appendTo(nil)
		if err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("round %d: re-encoding the decoded state gave %d bytes (%v), want the %d received", round, len(again), err, len(blob))
		}
	}
}

// TestStateTrimsZeros: a numeric slice ships without its zero prefix and
// suffix. An unwritten buffer is a count, a buffer written in the middle
// is the written part, a buffer written at both ends is whole. -0 is not
// a zero.
func TestStateTrimsZeros(t *testing.T) {
	const n = 1 << 16
	grid := make([]float64, n)
	header := len(encodeOne(t, "x", &grid))
	if header > 64 {
		t.Errorf("unwritten grid: %d bytes", header)
	}
	grid[n/2], grid[n/2+9] = 1.5, 2.5
	blob := encodeOne(t, "x", &grid)
	if len(blob) != header+10*8 {
		t.Errorf("grid written at [n/2, n/2+10): %d bytes, want the %d-byte header and 80 of payload", len(blob), header)
	}
	back := []float64{9, 9, 9}
	ss := newStateSet()
	ss.register("x", &back)
	if err := ss.decode(blob); err != nil || !reflect.DeepEqual(back, grid) {
		t.Fatalf("trimmed grid decoded to %d elements (%v), [n/2] = %v", len(back), err, back[min(n/2, len(back)-1)])
	}
	// Into a receiver with no room of its own the zeros are allocated, up
	// to the limit.
	ss.zerosLimit = 8*n - 81
	back = nil
	if err := ss.decode(blob); err == nil {
		t.Fatalf("%d zero bytes decoded under a limit of %d", 8*n-80, ss.zerosLimit)
	}

	grid[0], grid[n-1] = 1, math.Copysign(0, -1)
	if got := len(encodeOne(t, "x", &grid)); got < 8*n {
		t.Errorf("grid ending in -0: %d bytes, want the whole %d-byte payload", got, 8*n)
	}
	// Two zeros are not worth two more header fields.
	short := []float64{1, 0, 0}
	if blob := encodeOne(t, "x", &short); blob[xKindAt]&kindTrimmed != 0 {
		t.Errorf("[1 0 0] was trimmed: %d bytes", len(blob))
	}
}

// pureRaw is a state set the gob section plays no part in: the shape of
// an iterative solver's registered state, its bookkeeping struct included.
func pureRaw(n int) *stateSet {
	iter, step, label := 7, 0.125, "solver"
	meta := benchMeta{Seed: 20030623, Step: 7, Pos: 1, Label: "swap-small"}
	grid, idx, raw := make([]float64, n), make([]int32, n/4), make([]byte, n/8)
	for i := range grid {
		grid[i] = float64(i) + 0.5
	}
	for i := range idx {
		idx[i] = int32(i) - 3
	}
	for i := range raw {
		raw[i] = byte(i) | 1
	}
	ss := newStateSet()
	ss.register("iter", &iter)
	ss.register("step", &step)
	ss.register("label", &label)
	ss.register("grid", &grid)
	ss.register("idx", &idx)
	ss.register("raw", &raw)
	ss.register("meta", &meta)
	if ss.nGob != 0 {
		panic("pureRaw: the struct went to the gob section")
	}
	return ss
}

// TestStateCodecAllocations is the gate on the swap path's copy budget:
// sizing, encoding into a buffer that is large enough and decoding into
// targets that are large enough allocate nothing, whatever the state's
// size.
func TestStateCodecAllocations(t *testing.T) {
	src, dst := pureRaw(1<<14), pureRaw(1<<14)
	size, err := src.encodedSize()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, size)
	if allocs := testing.AllocsPerRun(20, func() { src.encodedSize() }); allocs != 0 {
		t.Errorf("encodedSize: %v allocations, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if buf, err = src.appendTo(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encode into a sized buffer: %v allocations, want 0", allocs)
	}
	if len(buf) != size || cap(buf) != size {
		t.Errorf("encoded %d bytes into capacity %d, encodedSize said %d", len(buf), cap(buf), size)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := dst.decode(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decode into sized targets: %v allocations, want 0", allocs)
	}
	// The same through a session's checkpoint calls, on the benchmark
	// workloads' registration (a counter, a four-field struct, a 4 KiB
	// grid): a save into a reused buffer and a load back allocate nothing.
	err = Run(mpi.NewWorld(1), Config{Active: 1}, func(s *Session) error {
		iter, meta, grid := 1, benchMeta{Seed: 20030623, Step: 1, Pos: 1, Label: "swap-small"}, filled((4<<10)/8)
		s.Register("iter", &iter)
		s.Register("meta", &meta)
		s.Register("grid", &grid)
		var blob bytes.Buffer
		if allocs := testing.AllocsPerRun(20, func() {
			blob.Reset()
			if err := s.SaveCheckpoint(&blob); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadCheckpoint(&blob); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("checkpoint save and load: %v allocations, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSwapLoopAllocatesNoStateSizedBuffer is the same budget through a
// live TCP world: once both directions have carried the state, a swap of
// a 1 MiB process allocates a small fraction of it on both sides together
// (sender: the session's message buffer and the connection's pending
// buffers are reused; receiver: the frame is read into the buffer the
// previous swap-in released). A buffer allocated per swap is garbage the
// collector reclaims on the application's time, a different share of it
// from one run to the next.
func TestSwapLoopAllocatesNoStateSizedBuffer(t *testing.T) {
	const warm, timed = 6, 8
	w, err := mpi.NewTCPWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	rt := &rateTable{rates: []float64{100, 1000}}
	var before, after runtime.MemStats
	err = Run(w, Config{Active: 1, Policy: core.Greedy(), Probe: rt.probe},
		func(s *Session) error {
			iter := 0
			grid := filled((1 << 20) / 8)
			s.Register("iter", &iter)
			s.Register("grid", &grid)
			for !s.Done() && iter < warm+timed {
				if s.Active() {
					// Make the other host look better: one swap per iteration.
					rt.set(s.Rank(), 100)
					rt.set(1-s.Rank(), 1000)
					switch iter {
					case warm:
						runtime.ReadMemStats(&before)
					case warm + timed - 1:
						runtime.ReadMemStats(&after)
					}
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
	perSwap := (after.TotalAlloc - before.TotalAlloc) / (timed - 1)
	if perSwap > 128<<10 {
		t.Errorf("a swap of 1 MiB of state allocated %d KiB, want no state-sized buffer (under 128 KiB)", perSwap>>10)
	}
}

// TestSwapLoopObjectBudget is the small process's budget through a live
// world: 2 active ranks and a spare over TCP, the benchmark workloads'
// registration (a counter, a four-field struct, a 4 KiB grid) and a swap
// forced at every iteration. Once the buffers are warm a swap allocates at
// most 37 objects on all ranks together (≈ 33 measured; ≈ 38 while the
// rates were all-gathered and a reader goroutine handed each frame to its
// receiver, ≈ 42 while the leader gathered the votes and broadcast a
// verdict, ≈ 244 while the struct went through gob, whose decoder engine
// was compiled per swap-in), and sends 6 messages: the rate's gather, the
// plan, the state, its ack, the outgoing rank's vote and its outcome.
// Whatever a later change adds per swap shows here.
func TestSwapLoopObjectBudget(t *testing.T) {
	const warm, timed, budget, msgsPerSwap = 10, 40, 37, 6
	w, err := mpi.NewTCPWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	rt := &rateTable{rates: []float64{1000, 1000, 100}}
	var before, after runtime.MemStats
	rs, err := RunWithStats(w, Config{Active: 2, Policy: core.Greedy(), Probe: rt.probe},
		func(s *Session) error {
			iter := 0
			meta := benchMeta{Seed: 20030623, Step: 1, Pos: 1, Label: "swap-small"}
			grid := filled((4 << 10) / 8)
			s.Register("iter", &iter)
			s.Register("meta", &meta)
			s.Register("grid", &grid)
			for !s.Done() && iter <= warm+timed {
				if s.Active() {
					if c := s.Comm(); c.Rank() == 0 {
						// The member at position 0 looks slow and the spare fast:
						// one swap per iteration.
						rt.set(s.Rank(), 100)
						rt.set(c.WorldRank(1), 1000)
						rt.set(3-s.Rank()-c.WorldRank(1), 2000)
						switch iter {
						case warm:
							runtime.ReadMemStats(&before)
						case warm + timed:
							runtime.ReadMemStats(&after)
						}
					}
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
	if rs.Swaps < warm+timed {
		t.Fatalf("%d swaps in %d iterations, want one each", rs.Swaps, warm+timed+1)
	}
	if perSwap := float64(after.Mallocs-before.Mallocs) / timed; perSwap > budget {
		t.Errorf("a swap of 4 KiB of state allocated %.1f objects, want at most %d", perSwap, budget)
	}
	if msgs := rs.MPI.Total().MsgsSent; msgs != msgsPerSwap*uint64(rs.Swaps) {
		t.Errorf("%d swaps sent %d messages, want %d each", rs.Swaps, msgs, msgsPerSwap)
	}
}

// TestMessageBufferKeptOnlyWhileSmall: the rank's message buffer is
// reused from one checkpoint (or swap) to the next up to maxKeptBuf and
// dropped beyond it, so a large process does not hold its state twice.
func TestMessageBufferKeptOnlyWhileSmall(t *testing.T) {
	for _, c := range []struct {
		floats int
		kept   bool
	}{{(1 << 20) / 8, true}, {maxKeptBuf / 8, false}} {
		grid := filled(c.floats)
		err := Run(mpi.NewWorld(1), Config{Active: 1}, func(s *Session) error {
			s.Register("grid", &grid)
			var blob bytes.Buffer
			if err := s.SaveCheckpoint(&blob); err != nil {
				return err
			}
			if kept := s.buf != nil; kept != c.kept {
				t.Errorf("after saving %d KiB of state: buffer kept = %v, want %v", c.floats*8>>10, kept, c.kept)
			}
			grid = grid[:0]
			if err := s.LoadCheckpoint(bytes.NewReader(blob.Bytes())); err != nil {
				return err
			}
			if kept := s.buf != nil; kept != c.kept {
				t.Errorf("after loading %d KiB of state: buffer kept = %v, want %v", c.floats*8>>10, kept, c.kept)
			}
			if len(grid) != c.floats || grid[c.floats-1] != float64(c.floats) {
				t.Errorf("checkpoint of %d floats did not round-trip", c.floats)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzStateDecode: whatever the bytes, decode returns an error or leaves
// a state that re-encodes and decodes to itself, and allocates in
// proportion to the input (plus the zeros limit, lowered here), never to
// a count the input merely claims.
func FuzzStateDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	valid := newStateSet()
	randomKinds(rng).register(valid)
	blob, err := valid.appendTo(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(blob[:stateHdrLen])
	for _, field := range []string{"SF64", "Bytes", "S", "SI16", "Meta.Label"} {
		// A lying count on one variable, wherever it sits in the blob.
		at := bytes.Index(blob, append([]byte{byte(len(field)), 0}, field...)) + 2 + len(field) + 2
		f.Add(patched(blob, func(b []byte) { binary.LittleEndian.PutUint64(b[at:], 1<<33) }))
		f.Add(patched(blob, func(b []byte) { b[at-2] |= kindTrimmed; binary.LittleEndian.PutUint64(b[at:], 1<<20) }))
	}
	f.Add(patched(blob, func(b []byte) { binary.LittleEndian.PutUint64(b[len(b)-8:], 1<<50) }))
	// Slices that are one round of a move kernel and a tail, fully written.
	tails := newStateSet()
	(&rawKinds{SF64: oddF64[:7], SF32: oddF32[:5], SI32: []int32{-1, 2, -3, 4, -5, 6}, SU64: []uint64{1, 2, 3, 4, math.MaxUint64}}).register(tails)
	if blob, err = tails.appendTo(nil); err != nil {
		f.Fatal(err)
	}
	f.Add(blob)

	const zerosLimit = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		got := &rawKinds{}
		ss := newStateSet()
		ss.zerosLimit = zerosLimit
		got.register(ss)
		nVars := uint64(len(ss.vars))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := ss.decode(data)
		runtime.ReadMemStats(&after)
		// A raw payload byte is copied once; gob's decoder costs a fixed
		// amount plus a map entry or slice element per byte of its section.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(data))+nVars*zerosLimit+(256<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(data), alloc, bound)
		}
		if err != nil {
			return
		}
		blob, err := ss.appendTo(nil)
		if err != nil {
			t.Fatalf("re-encode of a decoded state: %v", err)
		}
		back := &rawKinds{}
		ss2 := newStateSet()
		back.register(ss2)
		if err := ss2.decode(blob); err != nil {
			t.Fatalf("decode of a re-encoded state: %v", err)
		}
		gv, bv := reflect.ValueOf(got).Elem(), reflect.ValueOf(back).Elem()
		for i := 0; i < gv.NumField(); i++ {
			if !sameBits(gv.Field(i), bv.Field(i)) {
				t.Fatalf("%s: %v became %v through a round trip", gv.Type().Field(i).Name, gv.Field(i), bv.Field(i))
			}
		}
	})
}

// ------------------------------------------------------- flattened structs

type flatScalars struct {
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	UP  uintptr
	F32 float32
	F64 float64
	B   bool
	S   string
}

type flatSlices struct {
	Bytes []byte
	SI    []int
	SI16  []int16
	SU32  []uint32
	SF32  []float32
	SF64  []float64
	Nil   []int64
	Empty []float64
}

type FlatPoint struct {
	X, Y float64
	Tag  string
}

type flatNested struct {
	N      int
	Origin FlatPoint
	Deep   struct {
		At FlatPoint
		K  []int32
	}
}

type flatEmbedded struct {
	FlatPoint
	Extra int64
}

// fillJunk sets every field of the struct v to a non-zero value and every
// slice to five non-zero elements: what a rank that was active before
// still holds when it is swapped in.
func fillJunk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillJunk(v.Field(i))
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 5, 8)
		for i := 0; i < 5; i++ {
			fillJunk(s.Index(i))
		}
		v.Set(s)
	case reflect.String:
		v.SetString("junk")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(9.5)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(9)
	default:
		v.SetUint(9)
	}
}

// TestFlattenedStructMatchesGob: a flattenable struct comes out of the
// field-by-field path as it comes out of gob. The receiver is full of
// junk, gob's target is zero (the gob path zeroes its receiver first), and
// the two results agree field for field, nil and empty slices alike — so
// a sender's zero field overwrites the receiver's value and a shorter
// slice leaves nothing behind.
func TestFlattenedStructMatchesGob(t *testing.T) {
	padded := make([]float64, 64)
	padded[20], padded[29] = 1.5, -2.5
	nested := flatNested{N: -3, Origin: FlatPoint{X: 1, Tag: "o"}}
	nested.Deep.At = FlatPoint{Y: math.Inf(-1)}
	nested.Deep.K = []int32{0, 0, 7, 0}
	for _, tc := range []struct {
		name    string
		src     any // pointer to the struct
		entries int
		gobOff  bool // gob is not the oracle: it drops a -0 field as a zero
	}{
		{"scalars of every width", &flatScalars{I: -1, I8: -8, I16: -16, I32: -32, I64: math.MinInt64,
			U: 1, U8: 255, U16: 1 << 15, U32: 1 << 31, U64: math.MaxUint64, UP: 0xdeadbeef,
			F32: -1.5, F64: math.SmallestNonzeroFloat64, B: true, S: "état"}, 15, false},
		{"all zero", &flatScalars{}, 15, false},
		{"slices", &flatSlices{Bytes: []byte{0, 1, 0}, SI: []int{-1, 2}, SI16: []int16{3}, SU32: []uint32{0, 0, 0},
			SF32: []float32{1.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, SF64: padded, Empty: []float64{}}, 8, false},
		{"nested", &nested, 8, false},
		{"embedded", &flatEmbedded{FlatPoint{X: 2, Y: 3, Tag: "e"}, 4}, 4, false},
		{"the benchmark's meta", &benchMeta{Seed: 20030623, Step: 0, Pos: 2, Label: "swap-small"}, 4, false},
		{"minus zero", &FlatPoint{X: math.Copysign(0, -1), Y: math.Float64frombits(0x7ff8000000000001)}, 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ := reflect.TypeOf(tc.src).Elem()
			got, want := reflect.New(typ), reflect.New(typ)
			fillJunk(got.Elem())

			a, b := newStateSet(), newStateSet()
			a.register("v", tc.src)
			b.register("v", got.Interface())
			if a.nGob != 0 || len(a.vars) != tc.entries {
				t.Fatalf("registered as %d entries (%d gob): %v, want %d raw", len(a.vars), a.nGob, a.names(), tc.entries)
			}
			for _, v := range a.vars {
				if !strings.HasPrefix(v.name, "v.") || v.of != "v" {
					t.Fatalf("entry %q of %q, want a field of \"v\"", v.name, v.of)
				}
			}
			size, err := a.encodedSize()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := a.appendTo(nil)
			if err != nil || len(blob) != size {
				t.Fatalf("encoded %d bytes (%v), encodedSize said %d", len(blob), err, size)
			}
			if err := b.decode(blob); err != nil {
				t.Fatal(err)
			}

			if !tc.gobOff {
				var stream bytes.Buffer
				if err := gob.NewEncoder(&stream).Encode(tc.src); err != nil {
					t.Fatal(err)
				}
				if err := gob.NewDecoder(&stream).Decode(want.Interface()); err != nil {
					t.Fatal(err)
				}
				if !sameBits(got.Elem(), want.Elem()) {
					t.Fatalf("field by field: %+v\nthrough gob:    %+v", got.Elem(), want.Elem())
				}
			}
			if !sameBits(got.Elem(), reflect.ValueOf(tc.src).Elem()) {
				t.Fatalf("received %+v, sent %+v", got.Elem(), reflect.ValueOf(tc.src).Elem())
			}
		})
	}
}

type (
	namedGrid  []float64
	selfGob    struct{ A, B int }
	selfBinary struct{ A, B int }
	keepsGob   struct {
		A      int
		hidden int
	}
)

func (g selfGob) GobEncode() ([]byte, error) { return []byte{byte(g.A), byte(g.B)}, nil }
func (g *selfGob) GobDecode(b []byte) error  { g.A, g.B = int(b[0]), int(b[1]); return nil }

func (g selfBinary) MarshalBinary() ([]byte, error)  { return []byte{byte(g.B), byte(g.A)}, nil }
func (g *selfBinary) UnmarshalBinary(b []byte) error { g.B, g.A = int(b[0]), int(b[1]); return nil }

// TestStructsThatStayGob: one field a raw entry cannot carry, or a type
// that encodes itself, keeps the whole variable in the gob section — one
// entry under the registered name, decoded as before: into a receiver
// zeroed first, unexported fields included.
func TestStructsThatStayGob(t *testing.T) {
	seven := 7
	for _, tc := range []struct {
		name      string
		src, junk any
	}{
		{"map field", &struct {
			A int
			M map[string]int
		}{1, map[string]int{"k": 1}}, &struct {
			A int
			M map[string]int
		}{9, map[string]int{"stale": 9}}},
		{"pointer field", &struct {
			A int
			P *int
		}{A: 1}, &struct {
			A int
			P *int
		}{9, &seven}},
		{"interface field", &struct {
			A int
			I any
		}{A: 1}, &struct {
			A int
			I any
		}{9, nil}},
		{"array field", &struct{ V [3]float64 }{[3]float64{1, 0, 3}}, &struct{ V [3]float64 }{[3]float64{9, 9, 9}}},
		{"[]string field", &struct{ L []string }{[]string{"a", ""}}, &struct{ L []string }{[]string{"x", "y", "z"}}},
		{"slice of struct field", &struct{ P []FlatPoint }{[]FlatPoint{{X: 1}}}, &struct{ P []FlatPoint }{[]FlatPoint{{Y: 9}, {Tag: "z"}}}},
		{"named-type field", &struct{ G namedGrid }{namedGrid{1, 0}}, &struct{ G namedGrid }{namedGrid{9, 9, 9}}},
		{"nested struct with a map", &struct {
			A  int
			In struct{ M map[int]int }
		}{A: 1}, &struct {
			A  int
			In struct{ M map[int]int }
		}{A: 9, In: struct{ M map[int]int }{map[int]int{9: 9}}}},
		{"GobEncode", &selfGob{1, 0}, &selfGob{9, 9}},
		{"MarshalBinary", &selfBinary{0, 2}, &selfBinary{9, 9}},
		{"nested struct that encodes itself", &struct {
			A  int
			In selfGob
		}{1, selfGob{0, 2}}, &struct {
			A  int
			In selfGob
		}{9, selfGob{9, 9}}},
		{"struct{}", &struct{}{}, &struct{}{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := newStateSet(), newStateSet()
			a.register("v", tc.src)
			b.register("v", tc.junk)
			if len(a.vars) != 1 || a.nGob != 1 || a.vars[0].name != "v" || a.vars[0].raw != nil {
				t.Fatalf("registered as %v (%d gob), want the one gob entry \"v\"", a.names(), a.nGob)
			}
			blob, err := a.appendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.decode(blob); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.junk, tc.src) {
				t.Fatalf("received %+v, sent %+v", tc.junk, tc.src)
			}
		})
	}

	// One unexported field: gob does not send it, and the receiver's is
	// zeroed with the rest of its struct — what per-field entries for the
	// exported ones could not do.
	src, dst := keepsGob{A: 0, hidden: 3}, keepsGob{A: 9, hidden: 9}
	a, b := newStateSet(), newStateSet()
	a.register("v", &src)
	b.register("v", &dst)
	if len(a.vars) != 1 || a.nGob != 1 {
		t.Fatalf("a struct with an unexported field registered as %v (%d gob)", a.names(), a.nGob)
	}
	blob, err := a.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.decode(blob); err != nil || dst != (keepsGob{}) {
		t.Fatalf("received %+v (%v), want the zero struct", dst, err)
	}
}

// TestFlattenedNamesCollide: a flattened struct occupies name.Field, so
// registering that name by hand as well is the double registration it
// always was — refused whichever came first, naming both registrations,
// and adding nothing.
func TestFlattenedNamesCollide(t *testing.T) {
	mustPanic := func(ss *stateSet, name string, ptr any, want ...string) {
		t.Helper()
		before := ss.names()
		defer func() {
			t.Helper()
			msg := fmt.Sprint(recover())
			for _, w := range want {
				if !strings.Contains(msg, w) {
					t.Errorf("Register(%q) panicked with %q, want it to name %s", name, msg, w)
				}
			}
			if after := ss.names(); !reflect.DeepEqual(after, before) {
				t.Errorf("refused Register(%q) left %v, registered before: %v", name, after, before)
			}
		}()
		ss.register(name, ptr)
		t.Errorf("Register(%q) did not panic; registered %v", name, ss.names())
	}
	var meta, other benchMeta
	var seed int64

	ss := newStateSet()
	ss.register("meta", &meta)
	mustPanic(ss, "meta.Seed", &seed, `"meta.Seed"`, `Register("meta")`)
	mustPanic(ss, "meta", &other, `"meta" registered twice`)
	mustPanic(ss, "meta", &seed, `"meta" registered twice`)

	ss = newStateSet()
	ss.register("meta.Seed", &seed)
	mustPanic(ss, "meta", &meta, `Register("meta.Seed")`, `Register("meta")`)
	if got := ss.names(); len(got) != 1 {
		t.Fatalf("after the refused struct: %v", got)
	}
}

// TestFlattenedBindingRefusesGobBlob: a checkpoint written while a struct
// still travelled in the gob section (one entry, not one per field) does
// not match the registration any more: it is refused by the variable
// count before anything is written.
func TestFlattenedBindingRefusesGobBlob(t *testing.T) {
	saved := benchMeta{Seed: 1, Step: 2, Pos: 3, Label: "old"}
	old := newStateSet()
	old.vars = []stateVar{{name: "meta", of: "meta", ptr: &saved}} // the binding before flattening
	old.nGob, old.gobStale = 1, true
	blob, err := old.appendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	held := benchMeta{Seed: 9, Step: 9, Pos: 9, Label: "held"}
	ss := newStateSet()
	ss.register("meta", &held)
	err = ss.decode(blob)
	if err == nil || !strings.Contains(err.Error(), "state mismatch: received 1 variables, registered [meta.Label meta.Pos meta.Seed meta.Step]") {
		t.Fatalf("decode of a gob-bound struct = %v", err)
	}
	if held != (benchMeta{Seed: 9, Step: 9, Pos: 9, Label: "held"}) {
		t.Fatalf("the refused blob wrote %+v", held)
	}
}
