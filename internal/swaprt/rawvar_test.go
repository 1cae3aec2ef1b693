package swaprt

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// oraclePut and oracleGet are the per-element loops the move kernels
// replaced, as f64Slice, f32Slice and intSlice had them: what put and
// get of a numeric slice must do, one bounds check an element.
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

// checkKernels holds one slice kind's put and get to the oracle, bit for
// bit, for every length up to 67 (past two rounds of either kernel, every
// tail length) and every window [lead, lead+body) of it.
func checkKernels[T number](t *testing.T) {
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
				got := make([]byte, body*width)
				raw.put(got, lead)
				want := image(full[lead : lead+body])
				if !bytes.Equal(got, want) {
					t.Fatalf("%T: put of [%d, %d+%d) of %d wrote\n%x, want\n%x", s, lead, lead, body, n, got, want)
				}
				// Into a receiver that holds something else, of another length.
				s = make([]T, (n+lead+body)%3*40)
				for i := range s {
					s[i] = fromBits[T](math.MaxUint64)
				}
				if err := raw.get(want, n, lead); err != nil {
					t.Fatal(err)
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
			if err := ss.decode(blob); err != nil {
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
// length from 0 to 67, every window — the unrolled kernels and their
// tails write and read exactly the bytes the per-element loops did.
func TestMoveKernelsMatchTheLoopsTheyReplace(t *testing.T) {
	check := func(kernels, blob func(*testing.T)) { kernels(t); blob(t) }
	check(checkKernels[int], checkTrimmedBlob[int])
	check(checkKernels[int8], checkTrimmedBlob[int8])
	check(checkKernels[int16], checkTrimmedBlob[int16])
	check(checkKernels[int32], checkTrimmedBlob[int32])
	check(checkKernels[int64], checkTrimmedBlob[int64])
	check(checkKernels[uint], checkTrimmedBlob[uint])
	check(checkKernels[uint16], checkTrimmedBlob[uint16])
	check(checkKernels[uint32], checkTrimmedBlob[uint32])
	check(checkKernels[uint64], checkTrimmedBlob[uint64])
	check(checkKernels[uintptr], checkTrimmedBlob[uintptr])
	check(checkKernels[float32], checkTrimmedBlob[float32])
	check(checkKernels[float64], checkTrimmedBlob[float64])
}
