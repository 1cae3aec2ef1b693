package swaprt

import (
	"fmt"
	"math"
	"unsafe"
)

// The raw kinds of the state format: fixed-width scalars, string, and
// slices of fixed-width numerics. int, uint and uintptr travel as 64
// bits. Only the builtin types are bound: a named type (type Grid
// []float64) is refused, and registers as its builtin type
// ((*[]float64)(&g)). A struct has no kind of its own: one whose fields
// are all exported and of these kinds (or structs of them) is bound as its
// fields, one entry each (stateSet.register), and any other type is
// refused.

type number interface {
	int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | uintptr | float32 | float64
}

// bindRaw returns the raw codec for ptr, or nil when ptr's type is not a
// raw kind.
func bindRaw(ptr any) rawVar {
	switch p := ptr.(type) {
	case *bool:
		return scalarVar{classBool, 1,
			func() uint64 {
				if *p {
					return 1
				}
				return 0
			},
			func(v uint64) { *p = v != 0 }}
	case *string:
		return stringVar{p}
	}
	for _, bind := range numBinders {
		if raw := bind(ptr); raw != nil {
			return raw
		}
	}
	return nil
}

var numBinders = []func(any) rawVar{
	bindNum[int], bindNum[int8], bindNum[int16], bindNum[int32], bindNum[int64],
	bindNum[uint], bindNum[uint8], bindNum[uint16], bindNum[uint32], bindNum[uint64],
	bindNum[uintptr], bindNum[float32], bindNum[float64],
}

// bindNum binds a T or a slice of T.
func bindNum[T number](ptr any) rawVar {
	switch p := ptr.(type) {
	case *T:
		return numScalar(p)
	case *[]T:
		return numSliceOf(p)
	}
	return nil
}

// numShape is the class and wire width of a numeric type.
func numShape[T number]() (class byte, width int) {
	class = classUint
	if isFloat[T]() {
		class = classFloat
	} else if T(0)-1 < 0 {
		class = classInt
	}
	switch any(T(0)).(type) {
	case int8, uint8:
		return class, 1
	case int16, uint16:
		return class, 2
	case int32, uint32, float32:
		return class, 4
	}
	return class, 8
}

// isFloat is a constant in every instantiation, so the branches on it
// below cost nothing: the compiler keeps the one that applies.
func isFloat[T number]() bool { return T(1)/2 != 0 }

// bits64 and bits32 are an element as it travels and of64 and of32 the
// element back: an integer's value, a float's bit pattern — so -0 is not
// a zero to trim and a NaN keeps its payload.
func bits64[T number](v T) uint64 {
	if isFloat[T]() {
		return math.Float64bits(float64(v))
	}
	return uint64(v)
}

func bits32[T number](v T) uint32 {
	if isFloat[T]() {
		return math.Float32bits(float32(v))
	}
	return uint32(v)
}

func of64[T number](w uint64) T {
	if isFloat[T]() {
		return T(math.Float64frombits(w))
	}
	return T(w)
}

func of32[T number](w uint32) T {
	if isFloat[T]() {
		return T(math.Float32frombits(w))
	}
	return T(w)
}

// wireBytes is the memory of s's elements, which is their encoding: on
// every host this package builds for (hostorder.go) a number is stored
// little-endian and as wide as it travels, so element i's wire bytes are
// bytes [i*width, (i+1)*width) of the slice's backing array. A numeric
// slice is sent from it and received into it, with no pass of its own.
func wireBytes[T number](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}

// window sets *p to n elements, in its own backing array when n fits,
// zeroes everything but [lead, lead+body) — the array's tail beyond n
// included, so nothing the receiver held before stays reachable — and
// returns that window for the caller to overwrite.
func window[T any](p *[]T, n, lead, body int) []T {
	s := *p
	if n > cap(s) {
		s = make([]T, n)
	} else {
		clear(s[n:cap(s)])
		s = s[:n]
		clear(s[:lead])
		clear(s[lead+body:])
	}
	*p = s
	return s[lead : lead+body]
}

// numSpan is span for a slice of numbers: what it trims is all bits zero.
func numSpan[T number](s []T) (lead, body int) {
	end := len(s)
	for lead < end && bits64(s[lead]) == 0 {
		lead++
	}
	for end > lead && bits64(s[end-1]) == 0 {
		end--
	}
	return lead, end - lead
}

// scalarVar is a fixed-width scalar, held as the low width bytes of a
// uint64.
type scalarVar struct {
	class byte
	width int
	load  func() uint64
	store func(uint64)
}

func numScalar[T number](p *T) scalarVar {
	class, width := numShape[T]()
	if width == 8 {
		return scalarVar{class, width,
			func() uint64 { return bits64(*p) },
			func(v uint64) { *p = of64[T](v) }}
	}
	return scalarVar{class, width,
		func() uint64 { return uint64(bits32(*p)) },
		func(v uint64) { *p = of32[T](uint32(v)) }}
}

func (x scalarVar) shape() (byte, int) { return x.class, x.width }
func (x scalarVar) count() int         { return 1 }
func (x scalarVar) span() (int, int)   { return 0, 1 }

func (x scalarVar) put(dst []byte, _, _ int) ([]byte, []byte) {
	v := x.load()
	for i := range x.width {
		dst = append(dst, byte(v>>(8*i)))
	}
	return dst, nil
}

func (x scalarVar) get(in *stream, n, _, _ int) error {
	if n != 1 {
		return fmt.Errorf("scalar with count %d", n)
	}
	src := in.take(x.width)
	if in.err != nil {
		return in.err
	}
	var v uint64
	for i, b := range src {
		v |= uint64(b) << (8 * i)
	}
	if x.class == classBool && v > 1 {
		return fmt.Errorf("bool with value %d", v)
	}
	x.store(v)
	return nil
}

type stringVar struct{ p *string }

func (x stringVar) shape() (byte, int) { return classString, 1 }
func (x stringVar) count() int         { return len(*x.p) }
func (x stringVar) span() (int, int)   { return 0, len(*x.p) }

func (x stringVar) put(dst []byte, _, _ int) ([]byte, []byte) {
	return append(dst, *x.p...), nil
}

func (x stringVar) get(in *stream, _, _, body int) error {
	src := in.take(body)
	if in.err != nil {
		return in.err
	}
	// The comparison does not allocate: a label that did not change costs
	// nothing to receive.
	if *x.p != string(src) {
		*x.p = string(src)
	}
	return nil
}

// numSlice is a slice of any numeric type. It travels as its own memory
// (wireBytes): put hands out its elements as they lie, and get reads them
// straight into its backing array.
type numSlice[T number] struct {
	p     *[]T
	class byte
	width int
}

func numSliceOf[T number](p *[]T) numSlice[T] {
	class, width := numShape[T]()
	return numSlice[T]{p, class, width}
}

func (x numSlice[T]) shape() (byte, int) { return x.class | kindSlice, x.width }
func (x numSlice[T]) count() int         { return len(*x.p) }
func (x numSlice[T]) span() (int, int)   { return numSpan(*x.p) }

func (x numSlice[T]) put(dst []byte, lead, body int) ([]byte, []byte) {
	return dst, wireBytes((*x.p)[lead : lead+body])
}

func (x numSlice[T]) get(in *stream, n, lead, body int) error {
	return in.fill(wireBytes(window(x.p, n, lead, body)))
}
