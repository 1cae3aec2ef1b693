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
// one, keeps deciding its encoding.

type integer interface {
	int | int8 | int16 | int32 | int64 | uint | uint8 | uint16 | uint32 | uint64 | uintptr
}

// bindRaw returns the raw codec for ptr, or nil when ptr's type is not a
// raw kind.
func bindRaw(ptr any) rawVar {
	switch p := ptr.(type) {
	case *int:
		return intScalar(p)
	case *int8:
		return intScalar(p)
	case *int16:
		return intScalar(p)
	case *int32:
		return intScalar(p)
	case *int64:
		return intScalar(p)
	case *uint:
		return intScalar(p)
	case *uint8:
		return intScalar(p)
	case *uint16:
		return intScalar(p)
	case *uint32:
		return intScalar(p)
	case *uint64:
		return intScalar(p)
	case *uintptr:
		return intScalar(p)
	case *float32:
		return scalarVar{classFloat, 4,
			func() uint64 { return uint64(math.Float32bits(*p)) },
			func(v uint64) { *p = math.Float32frombits(uint32(v)) }}
	case *float64:
		return scalarVar{classFloat, 8,
			func() uint64 { return math.Float64bits(*p) },
			func(v uint64) { *p = math.Float64frombits(v) }}
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
	case *[]int:
		return intSliceOf(p)
	case *[]int8:
		return intSliceOf(p)
	case *[]int16:
		return intSliceOf(p)
	case *[]int32:
		return intSliceOf(p)
	case *[]int64:
		return intSliceOf(p)
	case *[]uint:
		return intSliceOf(p)
	case *[]uint16:
		return intSliceOf(p)
	case *[]uint32:
		return intSliceOf(p)
	case *[]uint64:
		return intSliceOf(p)
	case *[]uintptr:
		return intSliceOf(p)
	case *[]float32:
		return f32Slice{p}
	case *[]float64:
		return f64Slice{p}
	}
	return nil
}

// intShape is the class and wire width of an integer type.
func intShape[T integer]() (class byte, width int) {
	class = classUint
	if ^T(0) < 0 {
		class = classInt
	}
	switch any(T(0)).(type) {
	case int8, uint8:
		return class, 1
	case int16, uint16:
		return class, 2
	case int32, uint32:
		return class, 4
	}
	return class, 8
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

// intSpan is span for a slice of integers.
func intSpan[T integer](s []T) (lead, body int) {
	end := len(s)
	for lead < end && s[lead] == 0 {
		lead++
	}
	for end > lead && s[end-1] == 0 {
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

func intScalar[T integer](p *T) scalarVar {
	class, width := intShape[T]()
	return scalarVar{class, width,
		func() uint64 { return uint64(*p) },
		func(v uint64) { *p = T(v) }}
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
func (x bytesVar) span() (int, int)         { return intSpan(*x.p) }
func (x bytesVar) put(dst []byte, lead int) { copy(dst, (*x.p)[lead:]) }

func (x bytesVar) get(src []byte, n, lead int) error {
	copy(window(x.p, n, lead, len(src)), src)
	return nil
}

// intSlice is a slice of any integer type but byte.
type intSlice[T integer] struct {
	p     *[]T
	class byte
	width int
}

func intSliceOf[T integer](p *[]T) intSlice[T] {
	class, width := intShape[T]()
	return intSlice[T]{p, class, width}
}

func (x intSlice[T]) shape() (byte, int) { return x.class | kindSlice, x.width }
func (x intSlice[T]) count() int         { return len(*x.p) }
func (x intSlice[T]) span() (int, int)   { return intSpan(*x.p) }

func (x intSlice[T]) put(dst []byte, lead int) {
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
		for i, v := range s {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
		}
	default:
		for i, v := range s {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v))
		}
	}
}

func (x intSlice[T]) get(src []byte, n, lead int) error {
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
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint32(src[4*i:]))
		}
	default:
		for i := range s {
			s[i] = T(binary.LittleEndian.Uint64(src[8*i:]))
		}
	}
	return nil
}

// The float slices compare and move bit patterns, so -0 is not a zero
// to trim and a NaN keeps its payload.

type f64Slice struct{ p *[]float64 }

func (x f64Slice) shape() (byte, int) { return classFloat | kindSlice, 8 }
func (x f64Slice) count() int         { return len(*x.p) }

func (x f64Slice) span() (lead, body int) {
	s := *x.p
	end := len(s)
	for lead < end && math.Float64bits(s[lead]) == 0 {
		lead++
	}
	for end > lead && math.Float64bits(s[end-1]) == 0 {
		end--
	}
	return lead, end - lead
}

func (x f64Slice) put(dst []byte, lead int) {
	for i, v := range (*x.p)[lead : lead+len(dst)/8] {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func (x f64Slice) get(src []byte, n, lead int) error {
	s := window(x.p, n, lead, len(src)/8)
	for i := range s {
		s[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return nil
}

type f32Slice struct{ p *[]float32 }

func (x f32Slice) shape() (byte, int) { return classFloat | kindSlice, 4 }
func (x f32Slice) count() int         { return len(*x.p) }

func (x f32Slice) span() (lead, body int) {
	s := *x.p
	end := len(s)
	for lead < end && math.Float32bits(s[lead]) == 0 {
		lead++
	}
	for end > lead && math.Float32bits(s[end-1]) == 0 {
		end--
	}
	return lead, end - lead
}

func (x f32Slice) put(dst []byte, lead int) {
	for i, v := range (*x.p)[lead : lead+len(dst)/4] {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

func (x f32Slice) get(src []byte, n, lead int) error {
	s := window(x.p, n, lead, len(src)/4)
	for i := range s {
		s[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
	return nil
}
