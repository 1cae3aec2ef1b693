package swaprt

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The raw kinds of the state format: fixed-width scalars, string, and
// slices of fixed-width numerics. int, uint and uintptr travel as 64
// bits. Only the builtin types are bound; a named type (type Grid
// []float64) goes to the gob section, where its own GobEncoder, if it has
// one, keeps deciding its encoding. A struct has no kind of its own: one
// whose fields are all exported and of these kinds (or structs of them) is
// bound as its fields, one entry each (stateSet.register), and any other
// struct is a gob value.

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
	case *[]byte:
		return bytesVar{p}
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

// The move kernels of the 8- and 4-byte slice kinds: four elements a
// round through fixed-size windows, which is what lets the compiler check
// bounds once a round and not once an element, then a scalar tail.
// len(dst) or len(src) is the element size times len(s).

func put64[T number](dst []byte, s []T) {
	for ; len(s) >= 4 && len(dst) >= 32; dst, s = dst[32:], s[4:] {
		d, v := dst[:32:32], s[:4:4]
		binary.LittleEndian.PutUint64(d[0:], bits64(v[0]))
		binary.LittleEndian.PutUint64(d[8:], bits64(v[1]))
		binary.LittleEndian.PutUint64(d[16:], bits64(v[2]))
		binary.LittleEndian.PutUint64(d[24:], bits64(v[3]))
	}
	for i, v := range s {
		binary.LittleEndian.PutUint64(dst[8*i:], bits64(v))
	}
}

func get64[T number](s []T, src []byte) {
	for ; len(s) >= 4 && len(src) >= 32; src, s = src[32:], s[4:] {
		d, v := src[:32:32], s[:4:4]
		v[0] = of64[T](binary.LittleEndian.Uint64(d[0:]))
		v[1] = of64[T](binary.LittleEndian.Uint64(d[8:]))
		v[2] = of64[T](binary.LittleEndian.Uint64(d[16:]))
		v[3] = of64[T](binary.LittleEndian.Uint64(d[24:]))
	}
	for i := range s {
		s[i] = of64[T](binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func put32[T number](dst []byte, s []T) {
	for ; len(s) >= 4 && len(dst) >= 16; dst, s = dst[16:], s[4:] {
		d, v := dst[:16:16], s[:4:4]
		binary.LittleEndian.PutUint32(d[0:], bits32(v[0]))
		binary.LittleEndian.PutUint32(d[4:], bits32(v[1]))
		binary.LittleEndian.PutUint32(d[8:], bits32(v[2]))
		binary.LittleEndian.PutUint32(d[12:], bits32(v[3]))
	}
	for i, v := range s {
		binary.LittleEndian.PutUint32(dst[4*i:], bits32(v))
	}
}

func get32[T number](s []T, src []byte) {
	for ; len(s) >= 4 && len(src) >= 16; src, s = src[16:], s[4:] {
		d, v := src[:16:16], s[:4:4]
		v[0] = of32[T](binary.LittleEndian.Uint32(d[0:]))
		v[1] = of32[T](binary.LittleEndian.Uint32(d[4:]))
		v[2] = of32[T](binary.LittleEndian.Uint32(d[8:]))
		v[3] = of32[T](binary.LittleEndian.Uint32(d[12:]))
	}
	for i := range s {
		s[i] = of32[T](binary.LittleEndian.Uint32(src[4*i:]))
	}
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

func (x scalarVar) put(dst []byte, _ int) {
	v := x.load()
	for i := range dst {
		dst[i] = byte(v >> (8 * i))
	}
}

func (x scalarVar) get(src []byte, n, _ int) error {
	if n != 1 {
		return fmt.Errorf("scalar with count %d", n)
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

func (x stringVar) shape() (byte, int)    { return classString, 1 }
func (x stringVar) count() int            { return len(*x.p) }
func (x stringVar) span() (int, int)      { return 0, len(*x.p) }
func (x stringVar) put(dst []byte, _ int) { copy(dst, *x.p) }

func (x stringVar) get(src []byte, _, _ int) error {
	// The comparison does not allocate: a label that did not change costs
	// nothing to receive.
	if *x.p != string(src) {
		*x.p = string(src)
	}
	return nil
}

type bytesVar struct{ p *[]byte }

func (x bytesVar) shape() (byte, int)       { return classUint | kindSlice, 1 }
func (x bytesVar) count() int               { return len(*x.p) }
func (x bytesVar) span() (int, int)         { return numSpan(*x.p) }
func (x bytesVar) put(dst []byte, lead int) { copy(dst, (*x.p)[lead:]) }

func (x bytesVar) get(src []byte, n, lead int) error {
	copy(window(x.p, n, lead, len(src)), src)
	return nil
}

// numSlice is a slice of any numeric type but byte.
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

func (x numSlice[T]) put(dst []byte, lead int) {
	s := (*x.p)[lead : lead+len(dst)/x.width]
	switch x.width {
	case 1:
		for i, v := range s {
			dst[i] = byte(v)
		}
	case 2:
		for i, v := range s {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v))
		}
	case 4:
		put32(dst, s)
	default:
		put64(dst, s)
	}
}

func (x numSlice[T]) get(src []byte, n, lead int) error {
	s := window(x.p, n, lead, len(src)/x.width)
	switch x.width {
	case 1:
		for i := range s {
			s[i] = T(src[i])
		}
	case 2:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint16(src[2*i:]))
		}
	case 4:
		get32(s, src)
	default:
		get64(s, src)
	}
	return nil
}
