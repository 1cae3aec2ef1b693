// Package wire is the TCP transport's framing layer: a hand-rolled,
// allocation-free binary encoding of the one fixed message shape the
// mesh carries (Envelope). There is one frame format; every rank of a
// world is started from the same binary, so nothing is negotiated.
//
// Stream layout: one protocol byte ('B'), then back-to-back frames for
// the connection's lifetime. The byte is input validation: a decoder
// that is handed anything else (a stray client, a stream from a build
// that framed differently) refuses the stream at its first byte instead
// of reading garbage as a length.
//
// Frame (big-endian, 24-byte header):
//
//	[0:4]   uint32  payload length n (<= MaxPayload); bit 31: extension follows
//	[4:12]  uint64  Comm
//	[12:16] uint32  Src  (two's-complement int32)
//	[16:20] uint32  Dst  (two's-complement int32)
//	[20:24] uint32  Tag  (two's-complement int32)
//	[24:40] uint64 LC, uint64 Seq   only when bit 31 of [0:4] is set
//	[..:..+n]       payload
//
// MaxPayload leaves the top bit of the length word unused; a frame
// whose envelope carries causal context (LC != 0: the sender's Lamport
// clock and send sequence) sets it and inserts the 16 extension bytes
// between header and payload. An envelope has exactly one encoding: LC
// == 0 is written without the flag, and the decoder refuses a flagged
// frame whose LC is 0.
//
// The Encoder serializes into an in-memory pending buffer that whoever
// writes the connection swaps out (Take) and returns (Recycle), so the
// steady-state send path performs zero heap allocations: buffers come
// from a sync.Pool and are double-buffered per connection. A large
// payload need not pass through it: EncodeHeader buffers a frame without
// its payload, which the writer sends from the caller's slices. The
// Decoder reads a frame's header apart from its payload (DecodeHeader).
// The payload then goes to a reader that consumes it as it arrives
// (Payload, SkipPayload), or into a buffer (ReadPayload): small payloads
// come out of a shared slab (capacity-clipped, so an appending receiver
// cannot scribble on a neighbor's bytes) and oversized ones are read
// incrementally, so a lying length header can never force a large
// allocation before the bytes actually arrive.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Envelope is one message in flight between two ranks. Src and Dst are
// world ranks; Comm scopes matching to a communicator. The payload is
// Data followed by every slice of Tail, in order: a sender whose message
// lies in several places hands them over as they are, and a frame
// carries them as one payload. A decoded envelope has its whole payload
// in Data.
type Envelope struct {
	Comm uint64
	Src  int
	Dst  int
	Tag  int
	Data []byte
	Tail [][]byte

	// Causal piggyback (Lamport clock + send sequence of Src). Zero
	// means "no causal data": Lamport clocks start at 1, so LC == 0 is
	// the presence flag, and a frame ships the pair only when LC != 0.
	LC  uint64
	Seq uint64
}

// Codec is the stream's protocol byte. There is one; the type,
// CodecBinary and NewEncoder's parameter remain only because the frozen
// benchmark harness (bench/adapter.go) calls
// wire.NewEncoder(wire.CodecBinary).
type Codec byte

// CodecBinary is the protocol byte every stream opens with.
const CodecBinary Codec = 'B'

const (
	// headerLen is the fixed binary frame header size.
	headerLen = 24
	// MaxPayload bounds one frame's payload (1 GiB, the top of the
	// paper's process-size range), so a corrupt length field errors
	// instead of triggering an absurd allocation. It also reserves the
	// high bits of the length word; bit 31 is the causal-extension flag.
	MaxPayload = 1 << 30
	// causalFlag marks a frame that carries the 16-byte causal
	// extension after the fixed header.
	causalFlag = 1 << 31
	// causalExtLen is the causal extension size: uint64 LC + uint64 Seq.
	causalExtLen = 16
)

// Len is the payload's length: Data's and every Tail slice's.
func (env *Envelope) Len() int {
	n := len(env.Data)
	for _, b := range env.Tail {
		n += len(b)
	}
	return n
}

// AppendPayload appends env's payload, Data then Tail, to dst.
func AppendPayload(dst []byte, env *Envelope) []byte {
	dst = append(dst, env.Data...)
	for _, b := range env.Tail {
		dst = append(dst, b...)
	}
	return dst
}

// AppendFrame appends env's frame to dst and returns the extended
// slice: appendHeader, then the payload. It performs no allocation
// beyond growing dst.
func AppendFrame(dst []byte, env *Envelope) []byte {
	return AppendPayload(appendHeader(dst, env), env)
}

// appendHeader appends everything of env's frame but the payload: the
// fixed header, its length word counting env.Len(), then — when env
// carries causal data (LC != 0) — the flag bit in the length word and
// the 16 extension bytes.
func appendHeader(dst []byte, env *Envelope) []byte {
	var hdr [headerLen + causalExtLen]byte
	n, h := uint32(env.Len()), hdr[:headerLen]
	if env.LC != 0 {
		n |= causalFlag
		h = hdr[:]
		binary.BigEndian.PutUint64(hdr[24:32], env.LC)
		binary.BigEndian.PutUint64(hdr[32:40], env.Seq)
	}
	binary.BigEndian.PutUint32(hdr[0:4], n)
	binary.BigEndian.PutUint64(hdr[4:12], env.Comm)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(int32(env.Src)))
	binary.BigEndian.PutUint32(hdr[16:20], uint32(int32(env.Dst)))
	binary.BigEndian.PutUint32(hdr[20:24], uint32(int32(env.Tag)))
	return append(dst, h...)
}

// Encoder buffer pool. Buffers above maxPooledCap (a connection that
// carried a huge state transfer) are dropped for the GC instead of
// pinning their capacity in the pool. The bound sits above the paper's
// smallest process, 1 MiB of state plus its headers, with room for one
// round of append growth (1.25x): an encoder handed such a process every
// iteration keeps its buffer instead of allocating one per swap, and the
// FreeList keeps the receive buffer by the same bound. (The transport
// itself frames large payloads with EncodeHeader and buffers none.)
const (
	initialBufCap = 4 << 10
	maxPooledCap  = 2 << 20
)

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, initialBufCap)
	return &b
}}

func getBuf() []byte {
	bp := bufPool.Get().(*[]byte)
	return (*bp)[:0]
}

func putBuf(b []byte) {
	if b == nil || cap(b) > maxPooledCap {
		return
	}
	b = b[:0]
	bufPool.Put(&b)
}

// FreeList recycles large receive buffers. A Decoder gives every payload
// to its receiver for good, so a rank that takes a 1 MiB state frame at
// every swap would leave the collector 1 MiB per swap — and how often
// the collector then runs, and on whose time, differs from one run to
// the next. A receiver that has copied what it needs out of a payload
// can Put it back instead, and the decoders sharing the list read the
// next frame of about that size into it. The list is bounded in count
// and in buffer size (the encoder pool's bound), and a buffer on it is
// not an allocation, so the decoder's "never more than one bounded step
// beyond the bytes that arrived" property holds with or without one. The
// zero value is ready; a nil *FreeList recycles nothing.
type FreeList struct {
	mu   sync.Mutex
	bufs [][]byte // oldest first
}

// freeListLen bounds the buffers a FreeList holds: the one in
// circulation, one more for a payload that arrives before the last was
// released (a stale proposal's state after an abort), and two that a
// change of payload size has left behind and not yet pushed out.
const freeListLen = 4

// Put hands b's backing array to the list. The caller must own all of it
// and not touch it again. Payloads carved from a decoder's slab (anything
// up to slabMax) share their array with their neighbours and are
// refused, as are buffers too large to be worth pinning. A full list
// drops its oldest buffer, so it follows a payload size that changes.
func (f *FreeList) Put(b []byte) {
	if f == nil || cap(b) <= slabMax || cap(b) > maxPooledCap {
		return
	}
	f.mu.Lock()
	if len(f.bufs) == freeListLen {
		f.bufs = slices.Delete(f.bufs, 0, 1)
	}
	f.bufs = append(f.bufs, b[:0])
	f.mu.Unlock()
}

// Get takes the oldest buffer that holds n bytes without being more than
// twice that large and returns it empty, or returns nil.
func (f *FreeList) Get(n int) []byte {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, b := range f.bufs {
		if n <= cap(b) && cap(b) <= 2*n {
			f.bufs = slices.Delete(f.bufs, i, i+1)
			return b
		}
	}
	return nil
}

// Encoder serializes envelopes into a pending in-memory buffer for one
// writer at a time to flush. It is not safe for concurrent use; the TCP
// transport guards each connection's encoder with that connection's
// lock. The first byte ever buffered is the protocol byte.
type Encoder struct {
	pend  []byte // frames waiting to be flushed (starts with the protocol byte)
	spare []byte // recycled flush buffer, reused by the next Take
}

// NewEncoder returns an encoder with the protocol byte already
// buffered. The pending buffer comes from a pool; return it with Close
// when the connection dies. The parameter is ignored (see Codec).
func NewEncoder(Codec) *Encoder {
	return &Encoder{pend: append(getBuf(), byte(CodecBinary))}
}

// Encode appends env's frame to the pending buffer, allocating nothing
// beyond (amortized) buffer growth.
func (e *Encoder) Encode(env *Envelope) error {
	if err := e.EncodeHeader(env); err != nil {
		return err
	}
	e.pend = AppendPayload(e.pend, env)
	return nil
}

// EncodeHeader appends env's frame without its payload to the pending
// buffer, for a writer that sends the payload from the caller's own
// slices: it must Take the buffer and write env.Data and env.Tail to the
// stream directly behind it, before anything else is encoded.
func (e *Encoder) EncodeHeader(env *Envelope) error {
	if n := env.Len(); n > MaxPayload {
		return fmt.Errorf("wire: payload %d bytes exceeds MaxPayload %d", n, MaxPayload)
	}
	e.pend = appendHeader(e.pend, env)
	return nil
}

// PendingLen reports the bytes currently buffered.
func (e *Encoder) PendingLen() int { return len(e.pend) }

// Take hands the pending buffer to the writer and resets the encoder
// to the recycled spare (or a pooled buffer), so encoding continues
// while the taken bytes are being written.
func (e *Encoder) Take() []byte {
	out := e.pend
	if e.spare != nil {
		e.pend = e.spare[:0]
		e.spare = nil
	} else {
		e.pend = getBuf()
	}
	return out
}

// Recycle returns a flushed buffer for reuse by the next Take.
// Oversized buffers are dropped so one huge state transfer does not pin
// its capacity on the connection forever.
func (e *Encoder) Recycle(buf []byte) {
	if cap(buf) > maxPooledCap {
		return
	}
	if e.spare == nil {
		e.spare = buf[:0]
	} else {
		putBuf(buf)
	}
}

// Close returns the encoder's buffers to the pool. The encoder must not
// be used afterwards.
func (e *Encoder) Close() {
	putBuf(e.pend)
	putBuf(e.spare)
	e.pend, e.spare = nil, nil
}

// Decoder reads one sender's stream, checking the protocol byte on the
// first Await or Decode. It is not safe for concurrent use.
type Decoder struct {
	br      *bufio.Reader
	started bool // protocol byte read and accepted

	slab []byte    // arena for small payloads: one allocation serves many frames
	free *FreeList // recycled large payload buffers; may be nil
	// hdr receives the fixed header and, behind it, the causal extension.
	// It lives in the decoder because a local array handed to io.ReadFull
	// escapes: one heap allocation per received frame. body is the reader
	// Payload returns, kept here for the same reason.
	hdr  [headerLen + causalExtLen]byte
	body payload
}

const (
	// decoderBufSize is the read-ahead buffer; large enough that a
	// batch of small frames costs one Read syscall.
	decoderBufSize = 64 << 10
	// slabSize / slabMax: payloads up to slabMax are carved out of a
	// shared slabSize arena, so steady-state small-message receive
	// allocates once per ~thousands of frames instead of once each.
	slabSize = 32 << 10
	slabMax  = 2 << 10
	// readStep bounds each incremental allocation for large payloads: a
	// payload up to readStep is one exact allocation, a larger one grows
	// as its bytes arrive. Like maxPooledCap it sits above 1 MiB plus
	// headers, so the paper's smallest process is not read into a 1 MiB
	// buffer and then copied into one a few bytes larger.
	readStep = 2 << 20
)

// NewDecoder returns a decoder reading r (typically a net.Conn). The
// caller owns connection deadlines; the decoder only reads.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{br: bufio.NewReaderSize(r, decoderBufSize)}
}

// UseFreeList makes the decoder read large payloads into buffers
// recycled through f before allocating new ones.
func (d *Decoder) UseFreeList(f *FreeList) { d.free = f }

// Await blocks until the first byte of the next frame has been read
// ahead, checking the stream's protocol byte first if no call has yet. It
// consumes nothing else, so when the read fails — a deadline, a closed
// connection — the next Await or Decode starts on the same frame boundary.
func (d *Decoder) Await() error {
	if err := d.start(); err != nil {
		return err
	}
	_, err := d.br.Peek(1)
	return err
}

// Ready reports whether the next frame's first byte has already been read
// ahead, so that Decode starts without waiting for the peer.
func (d *Decoder) Ready() bool { return d.started && d.br.Buffered() > 0 }

// start reads and checks the protocol byte, once per stream.
func (d *Decoder) start() error {
	if d.started {
		return nil
	}
	b, err := d.br.ReadByte()
	if err != nil {
		return err
	}
	if Codec(b) != CodecBinary {
		return fmt.Errorf("wire: unknown stream preamble 0x%02x (want 'B')", b)
	}
	d.started = true
	return nil
}

// Decode reads the next envelope into env: DecodeHeader, then
// ReadPayload. It returns io.EOF on a clean stream end at a frame
// boundary and io.ErrUnexpectedEOF on a truncated frame; it never panics
// and never allocates more than the bytes that actually arrived (plus
// one bounded step).
func (d *Decoder) Decode(env *Envelope) error {
	n, err := d.DecodeHeader(env)
	if err != nil {
		return err
	}
	return d.ReadPayload(env, n)
}

// DecodeHeader reads the next frame's header into env (its Data and Tail
// are cleared) and returns the length of its payload, which the caller
// consumes next and whole: ReadPayload, or Payload and then SkipPayload.
// It returns io.EOF on a clean stream end at a frame boundary.
func (d *Decoder) DecodeHeader(env *Envelope) (int, error) {
	if err := d.start(); err != nil {
		return 0, err
	}
	if _, err := io.ReadFull(d.br, d.hdr[:headerLen]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return 0, err // clean EOF at a frame boundary stays io.EOF
	}
	n := binary.BigEndian.Uint32(d.hdr[0:4])
	causal := n&causalFlag != 0
	n &^= causalFlag
	if n > MaxPayload {
		return 0, fmt.Errorf("wire: frame payload %d bytes exceeds MaxPayload %d", n, MaxPayload)
	}
	env.Comm = binary.BigEndian.Uint64(d.hdr[4:12])
	env.Src = int(int32(binary.BigEndian.Uint32(d.hdr[12:16])))
	env.Dst = int(int32(binary.BigEndian.Uint32(d.hdr[16:20])))
	env.Tag = int(int32(binary.BigEndian.Uint32(d.hdr[20:24])))
	env.Data, env.Tail = nil, nil
	env.LC, env.Seq = 0, 0
	if causal {
		if _, err := io.ReadFull(d.br, d.hdr[headerLen:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("wire: truncated causal extension: %w", err)
		}
		env.LC = binary.BigEndian.Uint64(d.hdr[24:32])
		env.Seq = binary.BigEndian.Uint64(d.hdr[32:40])
		if env.LC == 0 {
			// No encoder writes this: LC == 0 is "no causal data" and goes
			// out unflagged, so every envelope has one encoding.
			return 0, fmt.Errorf("wire: causal extension with zero clock")
		}
	}
	return int(n), nil
}

// ReadPayload reads the n payload bytes behind the header DecodeHeader
// returned into env.Data.
func (d *Decoder) ReadPayload(env *Envelope, n int) error {
	if n == 0 {
		return nil
	}
	data, err := d.readPayload(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: truncated frame payload (%d bytes): %w", n, err)
	}
	env.Data = data
	return nil
}

// Payload returns a reader of the n payload bytes behind the header
// DecodeHeader returned, read from the stream as the caller reads it —
// straight into the caller's memory when it asks for more than the
// read-ahead buffer holds. The reader ends with io.EOF after n bytes and
// fails with io.ErrUnexpectedEOF if the stream ends before them. The
// caller ends the frame with SkipPayload, however much it read.
func (d *Decoder) Payload(n int) io.Reader {
	d.body = payload{br: d.br, n: n}
	return &d.body
}

// SkipPayload discards what the reader Payload returned left unread, so
// that the stream stays framed whatever its reader did, and returns the
// first error the stream itself gave that reader or the discard: after
// one, the stream is not framed any more.
func (d *Decoder) SkipPayload() error {
	b := &d.body
	if b.err == nil && b.n > 0 {
		var k int
		k, b.err = d.br.Discard(b.n)
		b.n -= k
		if b.err == io.EOF {
			b.err = io.ErrUnexpectedEOF
		}
	}
	err := b.err
	d.body = payload{}
	return err
}

// payload is the reader Payload hands out: the next n bytes of br, and
// the first error br gave.
type payload struct {
	br  *bufio.Reader
	n   int
	err error
}

func (p *payload) Read(b []byte) (int, error) {
	if p.err != nil {
		return 0, p.err
	}
	if p.n == 0 {
		return 0, io.EOF
	}
	if len(b) > p.n {
		b = b[:p.n]
	}
	k, err := p.br.Read(b)
	p.n -= k
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		p.err = err
	}
	return k, err
}

// readPayload returns exactly n payload bytes. Small payloads are
// carved from the slab with their capacity clipped (a receiver that
// appends to its message forces a copy instead of corrupting the next
// message); large ones grow incrementally so a lying header cannot
// force a huge up-front allocation.
func (d *Decoder) readPayload(n int) ([]byte, error) {
	if n <= slabMax {
		if cap(d.slab)-len(d.slab) < n {
			d.slab = make([]byte, 0, slabSize)
		}
		off := len(d.slab)
		buf := d.slab[off : off+n : off+n]
		d.slab = d.slab[:off+n]
		if _, err := io.ReadFull(d.br, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := d.free.Get(n)
	if buf == nil {
		buf = make([]byte, 0, min(n, readStep))
	}
	for len(buf) < n {
		step := min(n-len(buf), readStep)
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		off := len(buf)
		buf = buf[:off+step]
		if _, err := io.ReadFull(d.br, buf[off:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
