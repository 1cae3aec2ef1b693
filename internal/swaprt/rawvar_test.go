package swaprt

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// oraclePut and oracleGet are the per-element loops that moved a numeric
// slice before it travelled as its own memory: what put and get of a
// numeric slice must do, one element at a time, on any host.
func oraclePut[T number](dst []byte, s []T, width int) {
	switch s := any(s).(type) {
	case []float64:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		return
	case []float32:
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
		}
		return
	}
	switch width {
	case 1:
		for i, v := range s {
			dst[i] = byte(v)
		}
	case 2:
		for i, v := range s {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
		}
	case 4:
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	default:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	}
}

func oracleGet[T number](s []T, src []byte, width int) {
	switch s := any(s).(type) {
	case []float64:
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
		}
		return
	case []float32:
		for i := range s {
			s[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
		}
		return
	}
	switch width {
	case 1:
		for i := range s {
			s[i] = T(src[i])
		}
	case 2:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint32(src[4*i:]))
		}
	default:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
}

// oddBits are the patterns a kernel that moved values and not bits would
// change: -0 (MinInt64), MaxUint64 (a NaN with every payload bit set),
// quiet and signalling NaNs with payloads in both float widths, the
// infinities, and bytes that differ in every position.
var oddBits = []uint64{
	1 << 63, math.MaxUint64, 0x7ff8000000000001, 0xfff4000000c0ffee, 0x7ff0000000000001,
	0x7fc000017fa00001, 0xffa0beefff800000, 0x7ff0000000000000, 0x0102030405060708, 1,
}

// fromBits is the T whose low bits are w's: the inverse of what travels.
func fromBits[T number](w uint64) T {
	var v T
	switch p := any(&v).(type) {
	case *float64:
		*p = math.Float64frombits(w)
	case *float32:
		*p = math.Float32frombits(uint32(w))
	default:
		v = T(w)
	}
	return v
}

// checkView holds one slice kind's view (wireBytes) to the oracle,
// bit for bit, for every length up to 67 and every window [lead,
// lead+body) of it: put hands out the bytes the oracle writes, and get
// reads them back through the view into a receiver that held something
// else, to what the oracle reads.
func checkView[T number](t *testing.T) {
	var s []T
	raw := bindRaw(&s)
	_, width := raw.shape()
	image := func(s []T) []byte { // the slice as the oracle writes it
		b := make([]byte, len(s)*width)
		oraclePut(b, s, width)
		return b
	}
	for n := 0; n <= 67; n++ {
		full := make([]T, n)
		for i := range full {
			full[i] = fromBits[T](oddBits[(i+n)%len(oddBits)] + uint64(i/len(oddBits)))
		}
		for lead := 0; lead <= n; lead++ {
			for body := 0; lead+body <= n; body++ {
				s = full
				head, got := raw.put(nil, lead, body)
				want := image(full[lead : lead+body])
				if len(head) != 0 || !bytes.Equal(got, want) {
					t.Fatalf("%T: put of [%d, %d+%d) of %d appended %x and handed out\n%x, want\n%x", s, lead, lead, body, n, head, got, want)
				}
				// Into a receiver that holds something else, of another length.
				s = make([]T, (n+lead+body)%3*40)
				for i := range s {
					s[i] = fromBits[T](math.MaxUint64)
				}
				in := stream{r: bytes.NewReader(want), left: len(want)}
				if err := raw.get(&in, n, lead, body); err != nil || in.left != 0 {
					t.Fatalf("%T: get of [%d, %d+%d) of %d: %v, %d bytes left", s, lead, lead, body, n, err, in.left)
				}
				back := make([]T, n)
				oracleGet(back[lead:lead+body], want, width)
				if len(s) != n || !bytes.Equal(image(s), image(back)) {
					t.Fatalf("%T: get of [%d, %d+%d) of %d read\n%x, want\n%x", s, lead, lead, body, n, image(s), image(back))
				}
			}
		}
	}
}

// checkTrimmedBlob encodes slices of one kind that are zero outside a
// window through the whole format and finds the oracle's bytes where the
// payload belongs, trimmed or not, and the slice back out of decode.
func checkTrimmedBlob[T number](t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 67} {
		for _, w := range [][2]int{{0, n}, {n / 3, n - n/3}, {0, n - n/4}, {n / 4, n / 2}, {n / 2, 1}, {0, 0}} {
			from, to := w[0], min(w[0]+w[1], n)
			s := make([]T, n)
			for i := from; i < to; i++ {
				s[i] = fromBits[T](oddBits[i%len(oddBits)])
			}
			orig := append([]T(nil), s...)
			blob := encodeOne(t, "x", &s)
			kind, width, _, lead, body := layout(bindRaw(&s))
			at := xPayloadAt
			if kind&kindTrimmed != 0 {
				at += trimHdrLen
			}
			want := make([]byte, body*width)
			oraclePut(want, orig[lead:lead+body], width)
			if !bytes.Equal(blob[at:at+len(want)], want) {
				t.Fatalf("%T: %d elements written in [%d, %d): payload\n%x, want\n%x", s, n, from, to, blob[at:at+len(want)], want)
			}
			got := make([]T, 7, 80)
			ss := newStateSet()
			ss.register("x", &got)
			if err := ss.decodeBlob(blob); err != nil {
				t.Fatal(err)
			}
			full, back := make([]byte, n*width), make([]byte, len(got)*width)
			oraclePut(full, orig, width)
			oraclePut(back, got, width)
			if !bytes.Equal(full, back) {
				t.Fatalf("%T: %d elements written in [%d, %d) decoded to\n%x, want\n%x", s, n, from, to, back, full)
			}
		}
	}
}

// TestMoveKernelsMatchTheLoopsTheyReplace: every raw slice kind, every
// length from 0 to 67, every window — a slice's memory, which travels in
// place of the move kernels' output, holds exactly the bytes the
// per-element loops write, and reading those bytes through it gives
// exactly what the loops read.
func TestMoveKernelsMatchTheLoopsTheyReplace(t *testing.T) {
	check := func(view, blob func(*testing.T)) { view(t); blob(t) }
	check(checkView[int], checkTrimmedBlob[int])
	check(checkView[int8], checkTrimmedBlob[int8])
	check(checkView[int16], checkTrimmedBlob[int16])
	check(checkView[int32], checkTrimmedBlob[int32])
	check(checkView[int64], checkTrimmedBlob[int64])
	check(checkView[uint], checkTrimmedBlob[uint])
	check(checkView[uint8], checkTrimmedBlob[uint8])
	check(checkView[uint16], checkTrimmedBlob[uint16])
	check(checkView[uint32], checkTrimmedBlob[uint32])
	check(checkView[uint64], checkTrimmedBlob[uint64])
	check(checkView[uintptr], checkTrimmedBlob[uintptr])
	check(checkView[float32], checkTrimmedBlob[float32])
	check(checkView[float64], checkTrimmedBlob[float64])
}

// withoutGob is a blob of testdata/state_blobs.hex as it reads for
// randomKinds without the map field that the file's states also held:
// the field's 15-byte entry (name "Gob", kind classGob, width 0, count 0)
// goes, nvars drops by one, and goblen and the gob stream behind it
// become goblen 0. It fails the test if the blob has no such entry or no
// gob stream.
func withoutGob(t *testing.T, blob []byte) []byte {
	t.Helper()
	entry := append([]byte{3, 0}, "Gob"...)
	entry = append(entry, classGob, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	at := bytes.Index(blob, entry)
	// goblen is the last u64 that counts the bytes behind it; a gob stream
	// holds no seven zero bytes in a row.
	end := len(blob) - 8
	for end > at && binary.LittleEndian.Uint64(blob[end:]) != uint64(len(blob)-end-8) {
		end--
	}
	if at < stateHdrLen || end < at+len(entry) || end == len(blob)-8 {
		t.Fatalf("no gob entry or no gob stream in %x", blob)
	}
	out := append(blob[:at:at], blob[at+len(entry):end]...)
	nvars := out[len(stateMagic)+1:]
	binary.LittleEndian.PutUint32(nvars, binary.LittleEndian.Uint32(nvars)-1)
	return append(out, 0, 0, 0, 0, 0, 0, 0, 0)
}

// TestPartsMatchTheOneBufferEncoding: the parts encoder's parts,
// concatenated, are byte for byte what the encoder wrote into one buffer
// before numeric slices travelled as their own memory. testdata/
// state_blobs.hex holds that encoder's output for sixteen seeded
// randomKinds states — trimmed and whole slices of every kind, nil and
// empty ones, a flattened struct, and a map field in a gob section that
// withoutGob takes out — one per line, and the same seed rebuilds the
// same states here.
func TestPartsMatchTheOneBufferEncoding(t *testing.T) {
	golden, err := os.ReadFile("testdata/state_blobs.hex")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(golden))
	if len(lines) != 16 {
		t.Fatalf("%d golden blobs, want 16", len(lines))
	}
	rng := rand.New(rand.NewSource(19))
	trimmed, whole := 0, 0
	for i, line := range lines {
		row, err := hex.DecodeString(line)
		if err != nil {
			t.Fatal(err)
		}
		want := withoutGob(t, row)
		ss := newStateSet()
		randomKinds(rng).register(ss)
		if got := ss.encodeBlob(nil); !bytes.Equal(got, want) {
			t.Fatalf("state %d: parts concatenate to\n%x\nwant\n%x", i, got, want)
		}
		for _, v := range ss.vars {
			if kind, _, _, _, body := layout(v.raw); kind&kindTrimmed != 0 {
				trimmed++
			} else if kind&kindSlice != 0 && body > 0 {
				whole++
			}
		}
	}
	if trimmed == 0 || whole == 0 {
		t.Fatalf("%d trimmed and %d whole slices in the golden states, want both", trimmed, whole)
	}
}
