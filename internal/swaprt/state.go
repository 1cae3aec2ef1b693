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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
//	goblen(u64), always 0
//
// payload is count*width bytes; with kindTrimmed set it is body*width
// bytes and lead and body are present. There is one format and one
// version of it: a blob that does not start with the magic and this
// version byte is refused, and so is an entry of kind classGob or a
// non-zero goblen, which only an older encoder wrote.
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
	classGob // reserved: refused by the decoder

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

// rawVar moves one registered variable between memory and the wire.
// Implementations are bound once, at Register.
type rawVar interface {
	// shape is the kind byte (without kindTrimmed) and the element width.
	shape() (kind byte, width int)
	// count is the number of elements (1 for a scalar, bytes of a string).
	count() int
	// span is the range [lead, lead+body) outside which a numeric slice
	// holds only zeros; anything else reports (0, count()).
	span() (lead, body int)
	// put hands over the body elements from lead on as they travel: a
	// scalar or a string appended to dst, a numeric slice as view, its own
	// memory, with dst returned as it was.
	put(dst []byte, lead, body int) (out, view []byte)
	// get overwrites the variable with n elements: the body from lead on
	// read from in, zeros around them. A slice keeps its backing array
	// when n fits, and its elements are read straight into it.
	get(in *stream, n, lead, body int) error
}

// stateVar is one entry of the state: a registered variable, or one
// field of a registered struct that was flattened (of is then the name
// the struct was registered under; otherwise it equals name).
type stateVar struct {
	name, of string
	raw      rawVar
}

// stateSet holds the variables registered for transfer on swap, sorted
// by name so both ends agree on the order whatever the registration
// order was.
type stateSet struct {
	vars []stateVar

	// zerosLimit is maxZerosAlloc (tests lower it).
	zerosLimit int

	// in is the decoder's source, kept so that a decode allocates nothing
	// of its own.
	in stream
}

func newStateSet() *stateSet { return &stateSet{zerosLimit: maxZerosAlloc} }

// register adds a pointer under name. A raw kind is one entry; a
// flattenable struct (see flatten) is one raw entry per field, named
// name.Field, so a swap moves it as it moves the same fields registered
// one by one. reflect runs here and not on a swap. Any other type, and
// re-registering a name, panics: either is always an application bug.
func (ss *stateSet) register(name string, ptr any) {
	if ptr == nil {
		panic(fmt.Sprintf("swaprt: Register(%q, nil)", name))
	}
	for _, v := range ss.vars {
		if v.of == name {
			panic(fmt.Sprintf("swaprt: state %q registered twice", name))
		}
	}
	entries := []stateVar{{name: name, raw: bindRaw(ptr)}}
	if entries[0].raw == nil {
		var err error
		if entries, err = flatten(nil, name, reflect.ValueOf(ptr)); err != nil {
			panic(fmt.Sprintf("swaprt: Register(%q): %v", name, err))
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

// The methods through which a type chooses its own encoding.
var selfEncoding = []string{
	"GobEncode", "GobDecode", "MarshalBinary", "UnmarshalBinary", "MarshalText", "UnmarshalText",
}

// flatten appends one raw entry per field of the struct ptr points at,
// depth-first through nested and embedded structs, each named
// path.Field and bound on the field's address. The struct is flattenable
// when it has a field, every field is exported and of a raw kind or
// itself a flattenable struct, and no struct on the way chooses its own
// encoding, which flattening would drop; an unexported field would stay
// as the receiver held it. Otherwise flatten says which value, by path
// and type, is in the way.
func flatten(out []stateVar, path string, ptr reflect.Value) ([]stateVar, error) {
	if ptr.Kind() != reflect.Pointer || ptr.IsNil() {
		return nil, fmt.Errorf("%s: %v, want a non-nil pointer", path, ptr.Type())
	}
	v := ptr.Elem()
	t := v.Type()
	if t.Kind() == reflect.Slice && t.Name() != "" {
		if u := reflect.PointerTo(reflect.SliceOf(t.Elem())); ptr.CanConvert(u) && bindRaw(ptr.Convert(u).Interface()) != nil {
			return nil, fmt.Errorf("%s: %v is a named slice type; register (%v)(&%s)", path, t, u, path)
		}
	}
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("%s: %v is neither a raw kind nor a struct of them", path, t)
	}
	for _, m := range selfEncoding {
		// The pointer type's method set holds the struct type's too.
		if _, ok := ptr.Type().MethodByName(m); ok {
			return nil, fmt.Errorf("%s: %v has its own %s", path, t, m)
		}
	}
	if v.NumField() == 0 {
		return nil, fmt.Errorf("%s: %v has no field", path, t)
	}
	for i := range v.NumField() {
		f := t.Field(i)
		name := path + "." + f.Name
		if !f.IsExported() {
			return nil, fmt.Errorf("%s: %v is unexported", name, f.Type)
		}
		fp := v.Field(i).Addr()
		if raw := bindRaw(fp.Interface()); raw != nil {
			out = append(out, stateVar{name: name, raw: raw})
			continue
		}
		var err error
		if out, err = flatten(out, name, fp); err != nil {
			return nil, err
		}
	}
	return out, nil
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

// rawSize is the exact encoded size: head is what appendParts appends to
// its buffer, views what it leaves in the numeric slices' memory.
func (ss *stateSet) rawSize() (head, views int) {
	head = stateHdrLen + 8
	for _, v := range ss.vars {
		head += varHdrLen + len(v.name)
		kind, w, _, _, body := layout(v.raw)
		if kind&kindTrimmed != 0 {
			head += trimHdrLen
		}
		if kind&kindSlice != 0 {
			views += body * w
		} else {
			head += body * w
		}
	}
	return head, views
}

// encodedSize reports the size of what appendParts would encode now,
// exactly and in O(#vars).
func (ss *stateSet) encodedSize() int {
	head, views := ss.rawSize()
	return head + views
}

// appendParts encodes the registered variables as the parts of one
// payload, which is their concatenation. Every numeric slice's elements
// are a part of their own, the slice's own memory (wireBytes); dst
// collects everything else — the headers, the scalars and strings —
// behind what it held, and the parts between the slices are its pieces,
// so the first part starts with what dst held. parts is reused for the
// list. dst grows once, to the exact size. The parts are valid until a
// registered variable or dst changes.
func (ss *stateSet) appendParts(dst []byte, parts [][]byte) ([]byte, [][]byte) {
	head, _ := ss.rawSize()
	dst = slices.Grow(dst, head)
	parts, from := parts[:0], 0
	dst = append(dst, stateMagic...)
	dst = append(dst, stateVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ss.vars)))
	for _, v := range ss.vars {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(v.name)))
		dst = append(dst, v.name...)
		kind, w, n, lead, body := layout(v.raw)
		dst = append(dst, kind, byte(w))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(n))
		if kind&kindTrimmed != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(lead))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(body))
		}
		var view []byte
		if dst, view = v.raw.put(dst, lead, body); len(view) > 0 {
			parts = append(parts, dst[from:len(dst):len(dst)], view)
			from = len(dst)
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, 0) // goblen
	return dst, append(parts, dst[from:len(dst):len(dst)])
}

// partsLen is the length of the payload parts make up.
func partsLen(parts [][]byte) int {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	return n
}

// decode restores the registered variables from the n bytes of the
// state format that r holds next. They are input from outside the
// process: the local registration must cover the same names with the
// same kinds and element widths (the application is the same program on
// every rank), and every count is checked against the bytes still unread
// before anything is allocated. A numeric slice's elements are read
// straight into the capacity it has (wireBytes). A decode that fails part
// way leaves the variables before the failure written and the one it
// failed in partly written: a spare's state means nothing until a
// swap-in commits, and the next full decode rewrites every element.
func (ss *stateSet) decode(r io.Reader, n int) error {
	in := &ss.in
	in.r, in.left, in.err, in.ahead = r, n, nil, nil
	defer func() { in.r, in.ahead = nil, nil }()
	if string(in.take(len(stateMagic))) != stateMagic || in.u8() != stateVersion {
		return fmt.Errorf("swaprt: unsupported state format (want %q version %d)", stateMagic, stateVersion)
	}
	if n := int(in.u32()); in.err == nil && n != len(ss.vars) {
		return fmt.Errorf("swaprt: state mismatch: received %d variables, registered %v", n, ss.names())
	}
	for _, v := range ss.vars {
		// The name and the kind, width and count behind it are one take,
		// in which the name is compared.
		nl := int(in.u16())
		hdr := in.take(nl + varHdrLen - 2)
		if in.err != nil {
			return in.err
		}
		if name := hdr[:nl]; string(name) != v.name {
			return fmt.Errorf("swaprt: state mismatch: received %q, registered %v", name, ss.names())
		}
		kind, width, count := hdr[nl], int(hdr[nl+1]), binary.LittleEndian.Uint64(hdr[nl+2:])
		wantKind, wantWidth := v.raw.shape()
		trimmed := kind&kindTrimmed != 0
		if kind&^kindTrimmed != wantKind || width != wantWidth || (trimmed && kind&kindSlice == 0) {
			return fmt.Errorf("swaprt: state %q: received %s, registered %s",
				v.name, kindString(kind, width), kindString(wantKind, wantWidth))
		}
		lead, body := uint64(0), count
		if trimmed {
			trim := in.take(trimHdrLen)
			if in.err != nil {
				return in.err
			}
			lead, body = binary.LittleEndian.Uint64(trim), binary.LittleEndian.Uint64(trim[8:])
			if lead > count || body > count-lead {
				return fmt.Errorf("swaprt: state %q: elements [%d, %d+%d) of %d", v.name, lead, lead, body, count)
			}
			if count-body > uint64(ss.zerosLimit/width) {
				return fmt.Errorf("swaprt: state %q: %d zero elements exceed the %d-byte limit", v.name, count-body, ss.zerosLimit)
			}
		}
		if body > uint64(in.left/width) {
			return fmt.Errorf("swaprt: state %q: %d elements of %d bytes, %d bytes left", v.name, body, width, in.left)
		}
		if err := v.raw.get(in, int(count), int(lead), int(body)); err != nil {
			return fmt.Errorf("swaprt: state %q: %w", v.name, err)
		}
	}
	size := in.u64()
	switch {
	case in.err != nil:
		return in.err
	case size > uint64(in.left):
		return errTruncated
	case size != 0:
		return fmt.Errorf("swaprt: state: non-zero goblen %d", size)
	case in.left != 0:
		return fmt.Errorf("swaprt: state: %d trailing bytes", in.left)
	}
	return nil
}

// stream is the state decoder's source: r, which holds left more bytes of
// the state. Headers and scalars are read ahead, up to lookahead bytes at
// a time and never past the state's end, so a small state costs a few
// reads of r and not one per field; a slice's elements beyond what was
// read ahead go from r straight into its memory. Like reader, it makes
// the first error stick and every later read return nothing, so a decoder
// checks once after a group of fields; a field longer than what is left
// is errTruncated and reads nothing.
type stream struct {
	r     io.Reader
	left  int // bytes of the state not decoded yet, ahead's included
	err   error
	ahead []byte // read from r and not decoded yet: the tail of look
	look  []byte // the read-ahead buffer
	long  []byte // a field longer than look: a long name or string
}

const lookahead = 512

// fail makes err the stream's error: io.EOF from r means the state ended
// early.
func (in *stream) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	in.err = err
}

// fill reads len(b) bytes into b: a numeric slice's elements, what was
// read ahead and then the rest straight into its memory.
func (in *stream) fill(b []byte) error {
	if in.err == nil && len(b) > in.left {
		in.err = errTruncated
	}
	if in.err != nil {
		return in.err
	}
	k := copy(b, in.ahead)
	in.ahead = in.ahead[k:]
	if _, err := io.ReadFull(in.r, b[k:]); err != nil {
		in.fail(err)
		return in.err
	}
	in.left -= len(b)
	return nil
}

// take returns the next n bytes, valid until the next take. It checks n
// against what is left before it reads or grows anything.
func (in *stream) take(n int) []byte {
	if in.err == nil && n > in.left {
		in.err = errTruncated
	}
	if in.err != nil {
		return nil
	}
	if n > len(in.ahead) {
		if n > lookahead {
			in.long = slices.Grow(in.long[:0], n)[:n]
			if in.fill(in.long) != nil {
				return nil
			}
			return in.long
		}
		if in.look == nil {
			in.look = make([]byte, lookahead)
		}
		m := copy(in.look, in.ahead)
		k, err := io.ReadAtLeast(in.r, in.look[m:min(lookahead, in.left)], n-m)
		if err != nil {
			in.fail(err)
			return nil
		}
		in.ahead = in.look[:m+k]
	}
	out := in.ahead[:n]
	in.ahead = in.ahead[n:]
	in.left -= n
	return out
}

// word reads a little-endian integer of size bytes.
func (in *stream) word(size int) uint64 {
	var v uint64
	for i, b := range in.take(size) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (in *stream) u8() byte    { return byte(in.word(1)) }
func (in *stream) u16() uint16 { return uint16(in.word(2)) }
func (in *stream) u32() uint32 { return uint32(in.word(4)) }
func (in *stream) u64() uint64 { return in.word(8) }

// reader consumes a message front to back. The first short read sets
// err and every later read returns zero, so a decoder checks once after
// a group of fields. It decodes the plan, commit and manager messages.
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

func (r *reader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
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
