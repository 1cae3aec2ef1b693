// Package swaprt is the live MPI-process-swapping runtime, the
// counterpart of the paper's prototype: applications over-allocate a
// world of N+M ranks, register their iteration-loop state, and call
// SwapPoint() once per iteration. A swap manager gathers performance
// measurements from per-rank "swap handlers" (probes), applies a
// core.Policy, and swaps slow active processes with fast spares by
// shipping the registered state between ranks and rebuilding the private
// active communicator — exactly the three-line-change programming model
// the paper describes (register state, call MPI_Swap in the loop, link
// the library).
package swaprt

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
)

// The state format (DESIGN.md §20 has the byte-layout table). All
// integers little-endian:
//
//	"SWST" version(u8) nvars(u32)
//	per registered name, sorted:
//	    namelen(u16) name kind(u8) width(u8) count(u64) [lead(u64) body(u64)] payload
//	goblen(u64) gob stream of every classGob variable, in the same order
//
// payload is count*width bytes; with kindTrimmed set it is body*width
// bytes and lead and body are present; a classGob entry has none. There
// is one format and one version of it: a blob that does not start with
// the magic and this version byte is refused.
const (
	stateMagic   = "SWST"
	stateVersion = 1
	stateHdrLen  = len(stateMagic) + 1 + 4
	varHdrLen    = 2 + 1 + 1 + 8 // without the name
	trimHdrLen   = 8 + 8
)

// A kind byte is an element class plus flags.
const (
	classInt = 1 + iota
	classUint
	classFloat
	classBool
	classString
	classGob

	kindSlice = 0x10
	// kindTrimmed marks a numeric slice sent without its zero prefix and
	// suffix: elements [lead, lead+body) are the payload and the rest of
	// the count are zeros, so an unwritten scratch or halo buffer ships as
	// a length and a preallocated one as its used part. The sender scans
	// inwards from both ends and stops at the first non-zero element, so
	// the scan costs what it saves plus O(1).
	kindTrimmed = 0x20
)

// maxZerosAlloc bounds the zeros a kindTrimmed entry may make the
// receiver allocate: they are the one count no payload vouches for.
// 1 GiB is the top of the paper's process-size range and the
// transport's frame limit.
const maxZerosAlloc = 1 << 30

// kindString names a kind and width the way the type it binds is spelled.
func kindString(kind byte, width int) string {
	slice, trimmed := "", ""
	if kind&kindSlice != 0 {
		slice = "[]"
	}
	if kind&kindTrimmed != 0 {
		trimmed = " (trimmed)"
	}
	switch kind &^ (kindSlice | kindTrimmed) {
	case classInt:
		return fmt.Sprintf("%sint%d%s", slice, 8*width, trimmed)
	case classUint:
		return fmt.Sprintf("%suint%d%s", slice, 8*width, trimmed)
	case classFloat:
		return fmt.Sprintf("%sfloat%d%s", slice, 8*width, trimmed)
	case classBool:
		return slice + "bool" + trimmed
	case classString:
		return slice + "string" + trimmed
	case classGob:
		return slice + "gob value" + trimmed
	}
	return fmt.Sprintf("kind(0x%02x)", kind)
}

// rawVar moves one registered variable between memory and the message
// buffer with no intermediate copy. Implementations are bound once, at
// Register.
type rawVar interface {
	// shape is the kind byte (without kindTrimmed) and the element width.
	shape() (kind byte, width int)
	// count is the number of elements (1 for a scalar, bytes of a string).
	count() int
	// span is the range [lead, lead+body) outside which a numeric slice
	// holds only zeros; anything else reports (0, count()).
	span() (lead, body int)
	// put writes the len(dst)/width elements from lead on to dst.
	put(dst []byte, lead int)
	// get overwrites the variable with n elements: the len(src)/width
	// from lead on read from src, zeros around them. A slice keeps its
	// backing array when n fits.
	get(src []byte, n, lead int) error
}

// stateVar is one entry of the state: a registered variable, or one
// field of a registered struct that was flattened (of is then the name
// the struct was registered under; otherwise it equals name). raw is nil
// for a type the raw kinds do not cover: that variable travels in the gob
// section.
type stateVar struct {
	name, of string
	ptr      any
	raw      rawVar
}

// stateSet holds the variables registered for transfer on swap, sorted
// by name so both ends agree on the order whatever the registration
// order was.
type stateSet struct {
	vars []stateVar
	nGob int

	// gobSize is the length of the gob section's stream at the last
	// successful encode; gobStale says a gob variable was registered
	// since. Only the gob section is measured by encoding it: every raw
	// kind's size is read off the variable.
	gobSize  int
	gobStale bool

	// zerosLimit is maxZerosAlloc (tests lower it).
	zerosLimit int
}

func newStateSet() *stateSet { return &stateSet{zerosLimit: maxZerosAlloc} }

// register adds a pointer under name. A raw kind is one entry; a
// flattenable struct (see flatten) is one raw entry per field, named
// name.Field, so a swap moves it as it moves the same fields registered
// one by one; anything else is one gob entry. reflect runs here and not on
// a swap. Re-registering a name panics: it is always an application bug.
func (ss *stateSet) register(name string, ptr any) {
	if ptr == nil {
		panic(fmt.Sprintf("swaprt: Register(%q, nil)", name))
	}
	for _, v := range ss.vars {
		if v.of == name {
			panic(fmt.Sprintf("swaprt: state %q registered twice", name))
		}
	}
	entries := []stateVar{{name: name, ptr: ptr, raw: bindRaw(ptr)}}
	if entries[0].raw == nil {
		if fields := flatten(nil, name, reflect.ValueOf(ptr)); fields != nil {
			entries = fields
		}
	}
	// Every check before the first insert: a refused registration adds
	// nothing.
	for _, e := range entries {
		if len(e.name) > math.MaxUint16 {
			panic(fmt.Sprintf("swaprt: Register: name of %d bytes", len(e.name)))
		}
		if i, found := ss.find(e.name); found {
			panic(fmt.Sprintf("swaprt: state %q registered twice: by Register(%q) and by Register(%q)",
				e.name, ss.vars[i].of, name))
		}
	}
	for _, e := range entries {
		e.of = name
		if e.raw == nil {
			ss.nGob++
			ss.gobStale = true
		}
		i, _ := ss.find(e.name)
		ss.vars = slices.Insert(ss.vars, i, e)
	}
}

// find is the position of name in vars, or where it would be inserted.
func (ss *stateSet) find(name string) (int, bool) {
	return slices.BinarySearchFunc(ss.vars, name, func(v stateVar, name string) int {
		return strings.Compare(v.name, name)
	})
}

// The interfaces through which a type chooses its own gob encoding.
var selfEncoding = []reflect.Type{
	reflect.TypeFor[gob.GobEncoder](), reflect.TypeFor[gob.GobDecoder](),
	reflect.TypeFor[encoding.BinaryMarshaler](), reflect.TypeFor[encoding.BinaryUnmarshaler](),
	reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
}

// flatten appends one raw entry per field of the struct ptr points at,
// depth-first through nested and embedded structs, each named
// prefix.Field and bound on the field's address. It returns nil unless
// the struct is flattenable: at least one field, every field exported
// and of a raw kind or itself a flattenable struct, and no struct on the
// way encoding itself. It is all or nothing. A nil pointer or interface
// field is legal inside a gob struct but not as a gob value of its own,
// and the gob path zeroes the receiver's whole struct, unexported fields
// included, which entries for the exported ones would not: such a struct
// stays one gob entry.
func flatten(out []stateVar, prefix string, ptr reflect.Value) []stateVar {
	if ptr.Kind() != reflect.Pointer || ptr.IsNil() || ptr.Elem().Kind() != reflect.Struct {
		return nil
	}
	v := ptr.Elem()
	for _, iface := range selfEncoding {
		// The pointer type's method set holds the struct type's too.
		if ptr.Type().Implements(iface) {
			return nil
		}
	}
	if v.NumField() == 0 {
		return nil
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() {
			return nil
		}
		name, fp := prefix+"."+f.Name, v.Field(i).Addr()
		p := fp.Interface()
		if raw := bindRaw(p); raw != nil {
			out = append(out, stateVar{name: name, ptr: p, raw: raw})
		} else if out = flatten(out, name, fp); out == nil {
			return nil
		}
	}
	return out
}

// names returns the registered names in sorted order.
func (ss *stateSet) names() []string {
	out := make([]string, len(ss.vars))
	for i, v := range ss.vars {
		out[i] = v.name
	}
	return out
}

// layout reports how a raw variable is encoded now: trimmed when that
// saves more than the two extra header fields cost.
func layout(raw rawVar) (kind byte, width, count, lead, body int) {
	kind, width = raw.shape()
	count = raw.count()
	lead, body = raw.span()
	if (count-body)*width > trimHdrLen {
		return kind | kindTrimmed, width, count, lead, body
	}
	return kind, width, count, 0, count
}

// rawSize is the exact encoded size of everything but the gob stream.
func (ss *stateSet) rawSize() int {
	n := stateHdrLen + 8
	for _, v := range ss.vars {
		n += varHdrLen + len(v.name)
		if v.raw != nil {
			kind, w, _, _, body := layout(v.raw)
			if kind&kindTrimmed != 0 {
				n += trimHdrLen
			}
			n += body * w
		}
	}
	return n
}

// encodedSize reports the size of what appendTo would append now. It is
// exact and O(#vars) for raw kinds. The gob section is measured by encoding it
// the first time after a gob variable is registered and otherwise taken
// from the last encode; when it cannot be encoded the error is returned
// with the raw size plus the last good gob size, so an unencodable
// registration does not make the swap look free.
func (ss *stateSet) encodedSize() (int, error) {
	var err error
	if ss.gobStale {
		_, err = ss.appendGob(nil)
	}
	return ss.rawSize() + ss.gobSize, err
}

// appendTo appends the encoding of the registered variables to dst,
// growing it once, to the exact size when the gob section is empty or
// unchanged in length.
func (ss *stateSet) appendTo(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, ss.rawSize()+ss.gobSize)
	dst = append(dst, stateMagic...)
	dst = append(dst, stateVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss.vars)))
	for _, v := range ss.vars {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.name)))
		dst = append(dst, v.name...)
		if v.raw == nil {
			dst = append(dst, classGob, 0)
			dst = binary.LittleEndian.AppendUint64(dst, 0)
			continue
		}
		kind, w, n, lead, body := layout(v.raw)
		dst = append(dst, kind, byte(w))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
		if kind&kindTrimmed != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(lead))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(body))
		}
		off := len(dst)
		dst = dst[:off+body*w] // inside the capacity grown above
		v.raw.put(dst[off:], lead)
	}
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst, err := ss.appendGob(dst)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(dst[lenAt:], uint64(len(dst)-lenAt-8))
	return dst, nil
}

// appendGob appends one gob stream holding every gob variable and
// records its length.
func (ss *stateSet) appendGob(dst []byte) ([]byte, error) {
	if ss.nGob == 0 {
		return dst, nil
	}
	w := appendWriter{dst}
	enc := gob.NewEncoder(&w)
	for _, v := range ss.vars {
		if v.raw != nil {
			continue
		}
		if err := enc.Encode(v.ptr); err != nil {
			return nil, fmt.Errorf("swaprt: encode state %q: %w", v.name, err)
		}
	}
	ss.gobSize, ss.gobStale = len(w.b)-len(dst), false
	return w.b, nil
}

type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// decode restores registered variables from an encoded blob, which is
// input from outside the process: the local registration must cover the
// same names with the same kinds and element widths (the application is
// the same program on every rank), and every count is checked against
// the bytes that are there before anything is allocated. A raw slice is
// decoded into the capacity it has; a gob target is zeroed first,
// because gob omits zero struct fields and leaves map entries it was not
// sent, so decoding over a live value would keep the receiver's stale
// ones.
func (ss *stateSet) decode(data []byte) error {
	r := reader{b: data}
	if string(r.take(len(stateMagic))) != stateMagic || r.u8() != stateVersion {
		return fmt.Errorf("swaprt: unsupported state format (want %q version %d)", stateMagic, stateVersion)
	}
	if n := int(r.u32()); r.err == nil && n != len(ss.vars) {
		return fmt.Errorf("swaprt: state mismatch: received %d variables, registered %v", n, ss.names())
	}
	for _, v := range ss.vars {
		name := r.take(int(r.u16()))
		kind, width, count := r.u8(), int(r.u8()), r.u64()
		if r.err != nil {
			return r.err
		}
		if string(name) != v.name {
			return fmt.Errorf("swaprt: state mismatch: received %q, registered %v", name, ss.names())
		}
		var wantKind byte = classGob
		wantWidth := 0
		if v.raw != nil {
			wantKind, wantWidth = v.raw.shape()
		}
		trimmed := kind&kindTrimmed != 0
		if kind&^kindTrimmed != wantKind || width != wantWidth || (trimmed && kind&kindSlice == 0) {
			return fmt.Errorf("swaprt: state %q: received %s, registered %s",
				v.name, kindString(kind, width), kindString(wantKind, wantWidth))
		}
		if v.raw == nil {
			if count != 0 {
				return fmt.Errorf("swaprt: state %q: gob entry with count %d", v.name, count)
			}
			continue
		}
		lead, body := uint64(0), count
		if trimmed {
			lead, body = r.u64(), r.u64()
			if r.err != nil {
				return r.err
			}
			if lead > count || body > count-lead {
				return fmt.Errorf("swaprt: state %q: elements [%d, %d+%d) of %d", v.name, lead, lead, body, count)
			}
			if count-body > uint64(ss.zerosLimit/width) {
				return fmt.Errorf("swaprt: state %q: %d zero elements exceed the %d-byte limit", v.name, count-body, ss.zerosLimit)
			}
		}
		if body > uint64(len(r.b)/width) {
			return fmt.Errorf("swaprt: state %q: %d elements of %d bytes, %d bytes left", v.name, body, width, len(r.b))
		}
		if err := v.raw.get(r.take(int(body)*width), int(count), int(lead)); err != nil {
			return fmt.Errorf("swaprt: state %q: %w", v.name, err)
		}
	}
	section := r.take64(r.u64())
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("swaprt: state: %d trailing bytes", len(r.b))
	}
	if ss.nGob == 0 {
		if len(section) != 0 {
			return fmt.Errorf("swaprt: state: %d-byte gob section, no gob variable registered", len(section))
		}
		return nil
	}
	dec := gob.NewDecoder(bytes.NewReader(section))
	for _, v := range ss.vars {
		if v.raw != nil {
			continue
		}
		zeroInPlace(reflect.ValueOf(v.ptr))
		if err := dec.Decode(v.ptr); err != nil {
			return fmt.Errorf("swaprt: decode state %q: %w", v.name, err)
		}
	}
	return nil
}

// zeroInPlace resets the value a gob variable's pointer points at. A
// slice keeps its backing array, cleared over its whole capacity and cut
// to length 0: gob decodes into capacity it finds.
func zeroInPlace(ptr reflect.Value) {
	if ptr.Kind() != reflect.Pointer || ptr.IsNil() {
		return // gob reports the unusable target
	}
	v := ptr.Elem()
	if v.Kind() == reflect.Slice {
		v.Slice(0, v.Cap()).Clear()
		v.SetLen(0)
		return
	}
	v.SetZero()
}

// reader consumes a message front to back. The first short read sets
// err and every later read returns zero, so a decoder checks once after
// a group of fields. It is shared by the state format and the plan and
// commit messages.
type reader struct {
	b   []byte
	err error
}

var errTruncated = errors.New("swaprt: truncated message")

// take returns the next n bytes without copying them. The first error
// sticks.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = errTruncated
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// take64 is take for a length read off the wire.
func (r *reader) take64(n uint64) []byte {
	if n > uint64(len(r.b)) {
		return r.take(len(r.b) + 1)
	}
	return r.take(int(n))
}

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u16() uint16 {
	if b := r.take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}
