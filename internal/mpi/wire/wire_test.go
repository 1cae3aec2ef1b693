package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestGoldenBinaryFrame pins the stream layout byte for byte: protocol
// byte 'B', then [u32 len][u64 comm][u32 src][u32 dst][u32 tag]
// big-endian, then the payload. A change here is a wire-format break.
func TestGoldenBinaryFrame(t *testing.T) {
	enc := NewEncoder(CodecBinary)
	defer enc.Close()
	env := Envelope{Comm: 0x0102030405060708, Src: 1, Dst: 2, Tag: 7, Data: []byte("hi")}
	if err := enc.Encode(&env); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'B',                    // stream preamble
		0x00, 0x00, 0x00, 0x02, // payload length 2
		0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, // comm
		0x00, 0x00, 0x00, 0x01, // src
		0x00, 0x00, 0x00, 0x02, // dst
		0x00, 0x00, 0x00, 0x07, // tag
		'h', 'i',
	}
	got := enc.Take()
	defer enc.Recycle(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes\n got %x\nwant %x", got, want)
	}
}

// TestGoldenNegativeInts pins the two's-complement encoding of negative
// Src/Dst/Tag (internal collective tags are negative).
func TestGoldenNegativeInts(t *testing.T) {
	env := Envelope{Src: -1, Dst: -2, Tag: -7}
	frame := AppendFrame(nil, &env)
	if got := binary.BigEndian.Uint32(frame[12:16]); got != 0xFFFFFFFF {
		t.Errorf("src -1 encoded as %#x", got)
	}
	if got := binary.BigEndian.Uint32(frame[20:24]); got != 0xFFFFFFF9 {
		t.Errorf("tag -7 encoded as %#x", got)
	}
	var dec Envelope
	d := NewDecoder(bytes.NewReader(append([]byte{'B'}, frame...)))
	if err := d.Decode(&dec); err != nil {
		t.Fatal(err)
	}
	if dec.Src != -1 || dec.Dst != -2 || dec.Tag != -7 {
		t.Fatalf("sign extension lost: %+v", dec)
	}
}

// roundTripEnvelopes pushes a batch of envelopes through one encoder
// stream and decodes them back.
func roundTripEnvelopes(t *testing.T, envs []Envelope) []Envelope {
	t.Helper()
	enc := NewEncoder(CodecBinary)
	defer enc.Close()
	var stream bytes.Buffer
	for i := range envs {
		if err := enc.Encode(&envs[i]); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		// Flush mid-stream sometimes to exercise Take/Recycle reuse.
		if i%2 == 1 {
			buf := enc.Take()
			stream.Write(buf)
			enc.Recycle(buf)
		}
	}
	buf := enc.Take()
	stream.Write(buf)
	enc.Recycle(buf)

	dec := NewDecoder(&stream)
	var out []Envelope
	for {
		var env Envelope
		err := dec.Decode(&env)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		out = append(out, env)
	}
	return out
}

func TestRoundTripBothCodecs(t *testing.T) {
	envs := []Envelope{
		{Comm: 0, Src: 0, Dst: 1, Tag: 0, Data: nil},
		{Comm: 1, Src: 2, Dst: 0, Tag: 99, Data: []byte("payload")},
		{Comm: ^uint64(0), Src: -1, Dst: 1 << 30, Tag: -7, Data: []byte{0}},
		{Comm: 42, Src: 3, Dst: 4, Tag: 5, Data: bytes.Repeat([]byte{0xAB}, 100<<10)}, // above slabMax
		{Comm: 7, Src: 1, Dst: 2, Tag: 3, Data: []byte{}},
	}
	t.Run("binary", func(t *testing.T) {
		got := roundTripEnvelopes(t, envs)
		if len(got) != len(envs) {
			t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
		}
		for i := range envs {
			g, w := got[i], envs[i]
			if g.Comm != w.Comm || g.Src != w.Src || g.Dst != w.Dst || g.Tag != w.Tag {
				t.Errorf("envelope %d header: got %+v", i, g)
			}
			if !bytes.Equal(g.Data, w.Data) {
				t.Errorf("envelope %d payload: %d vs %d bytes", i, len(g.Data), len(w.Data))
			}
		}
	})
}

// TestDecoderArenaIsolation: small payloads share an arena slab with
// their capacity clipped, so a receiver appending to one message must
// not scribble on the next message's bytes.
func TestDecoderArenaIsolation(t *testing.T) {
	var stream bytes.Buffer
	stream.WriteByte('B')
	a := Envelope{Tag: 1, Data: []byte("aaaa")}
	b := Envelope{Tag: 2, Data: []byte("bbbb")}
	stream.Write(AppendFrame(nil, &a))
	stream.Write(AppendFrame(nil, &b))

	dec := NewDecoder(&stream)
	var gotA, gotB Envelope
	if err := dec.Decode(&gotA); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&gotB); err != nil {
		t.Fatal(err)
	}
	_ = append(gotA.Data, 'X', 'X', 'X', 'X') // must copy, not extend into the slab
	if string(gotB.Data) != "bbbb" {
		t.Fatalf("append to message A corrupted message B: %q", gotB.Data)
	}
}

// TestDecoderUnknownPreamble: the protocol byte is input validation;
// every byte but 'B' is refused.
func TestDecoderUnknownPreamble(t *testing.T) {
	for _, stream := range []string{"Zjunk", "Gjunk", "Cjunk", "\x00"} {
		dec := NewDecoder(strings.NewReader(stream))
		var env Envelope
		err := dec.Decode(&env)
		if err == nil || !strings.Contains(err.Error(), "unknown stream preamble") {
			t.Fatalf("stream %q: err = %v, want unknown-preamble error", stream, err)
		}
	}
}

// TestDecoderTruncated cuts a valid stream at every byte boundary: each
// cut must produce a clean io.EOF (frame boundary) or an error — never a
// panic, a hang, or a phantom envelope.
func TestDecoderTruncated(t *testing.T) {
	env := Envelope{Comm: 9, Src: 1, Dst: 2, Tag: 3, Data: []byte("truncate me")}
	full := AppendFrame([]byte{'B'}, &env)
	for cut := 0; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		var got Envelope
		err := dec.Decode(&got)
		if err == nil {
			t.Fatalf("cut at %d decoded an envelope from a truncated stream", cut)
		}
	}
	// The uncut stream decodes, and the next Decode is a clean EOF.
	dec := NewDecoder(bytes.NewReader(full))
	var got Envelope
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&got); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
}

// TestDecoderOversizedFrame: a header claiming more than MaxPayload must
// error without attempting the allocation.
func TestDecoderOversizedFrame(t *testing.T) {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxPayload+1)
	dec := NewDecoder(bytes.NewReader(append([]byte{'B'}, hdr[:]...)))
	var env Envelope
	err := dec.Decode(&env)
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxPayload") {
		t.Fatalf("err = %v, want MaxPayload error", err)
	}
}

// TestDecoderLyingLengthHeader: a garbage header claiming a huge (but
// legal) payload over a short stream must error after reading what
// actually arrived — bounded incremental allocation, not a 1 GiB make.
func TestDecoderLyingLengthHeader(t *testing.T) {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxPayload) // claims 1 GiB
	stream := append([]byte{'B'}, hdr[:]...)
	stream = append(stream, bytes.Repeat([]byte{1}, 1024)...) // only 1 KiB arrives
	dec := NewDecoder(bytes.NewReader(stream))
	var env Envelope
	if err := dec.Decode(&env); err == nil {
		t.Fatal("lying header decoded successfully")
	}
}

func TestEncoderOversizedPayloadRejected(t *testing.T) {
	enc := NewEncoder(CodecBinary)
	defer enc.Close()
	big := Envelope{Data: make([]byte, MaxPayload+1)}
	if err := enc.Encode(&big); err == nil {
		t.Fatal("payload above MaxPayload encoded")
	}
	if enc.PendingLen() != 1 { // preamble only; the reject left no partial frame
		t.Fatalf("pending %d bytes after rejected encode", enc.PendingLen())
	}
}

// TestEncoderPreambleOncePerStream: the preamble is the first byte of
// the first flush and never repeats across Take/Recycle cycles.
func TestEncoderPreambleOncePerStream(t *testing.T) {
	enc := NewEncoder(CodecBinary)
	defer enc.Close()
	env := Envelope{Tag: 1, Data: []byte("x")}
	if err := enc.Encode(&env); err != nil {
		t.Fatal(err)
	}
	first := enc.Take()
	if first[0] != 'B' {
		t.Fatalf("first flush starts with %q, want 'B'", first[0])
	}
	enc.Recycle(first)
	if err := enc.Encode(&env); err != nil {
		t.Fatal(err)
	}
	second := enc.Take()
	defer enc.Recycle(second)
	if len(second) == 0 || second[0] == 'B' && len(second) != headerLen+1 {
		// The second flush must start directly with a frame header; its
		// first byte is the payload-length MSB (0 for a 1-byte payload).
		t.Fatalf("second flush re-sent the preamble: %x", second[:1])
	}
	if second[0] != 0 {
		t.Fatalf("second flush starts with %#x, want frame header", second[0])
	}
}

// TestGoldenCausalFrame pins the causal extension byte for byte: a frame
// carrying causal context sets bit 31 of the length word and appends
// [u64 LC][u64 Seq] after the fixed header; a frame without causal data
// has neither the flag nor the extension.
func TestGoldenCausalFrame(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 7, Data: []byte("hi"), LC: 0x0102, Seq: 0x03}
	got := AppendFrame(nil, &env)
	want := []byte{
		0x80, 0x00, 0x00, 0x02, // length 2 with causal flag (bit 31)
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, // comm
		0x00, 0x00, 0x00, 0x00, // src
		0x00, 0x00, 0x00, 0x01, // dst
		0x00, 0x00, 0x00, 0x07, // tag
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, // LC
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, // Seq
		'h', 'i',
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("causal frame bytes\n got %x\nwant %x", got, want)
	}

	// LC == 0 is "no causal data", whatever Seq says: the plain frame is
	// the golden one with the flag cleared and the extension cut out.
	plain := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 7, Data: []byte("hi"), Seq: 9}
	wantPlain := append(append([]byte{0x00}, want[1:headerLen]...), 'h', 'i')
	if got := AppendFrame(nil, &plain); !bytes.Equal(got, wantPlain) {
		t.Fatalf("plain frame bytes\n got %x\nwant %x", got, wantPlain)
	}
}

// TestRoundTripCausalCodec mixes causal and non-causal envelopes on one
// stream: LC/Seq must survive exactly and absent causal data must
// decode back to zero.
func TestRoundTripCausalCodec(t *testing.T) {
	envs := []Envelope{
		{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: []byte("a"), LC: 1, Seq: 1},
		{Comm: 1, Src: 1, Dst: 0, Tag: 3, Data: []byte("b")}, // non-causal
		{Comm: 1, Src: 0, Dst: 1, Tag: -7, Data: nil, LC: ^uint64(0), Seq: 1 << 40},
		{Comm: 1, Src: 2, Dst: 3, Tag: 5, Data: bytes.Repeat([]byte{0xCD}, 100<<10), LC: 9, Seq: 2},
	}
	got := roundTripEnvelopes(t, envs)
	if len(got) != len(envs) {
		t.Fatalf("decoded %d envelopes, want %d", len(got), len(envs))
	}
	for i := range envs {
		g, w := got[i], envs[i]
		if g.LC != w.LC || g.Seq != w.Seq {
			t.Errorf("envelope %d causal context: got lc=%d seq=%d, want lc=%d seq=%d",
				i, g.LC, g.Seq, w.LC, w.Seq)
		}
		if !bytes.Equal(g.Data, w.Data) || g.Tag != w.Tag {
			t.Errorf("envelope %d payload/header diverged: %+v", i, g)
		}
	}
}

// TestCausalZeroClockRefused: a flagged frame whose extension carries LC
// == 0 is a second spelling of "no causal data" that no encoder writes;
// the decoder refuses it, so every envelope has exactly one encoding.
func TestCausalZeroClockRefused(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: []byte("hi"), LC: 7, Seq: 1}
	stream := AppendFrame([]byte{'B'}, &env)
	clear(stream[1+headerLen : 1+headerLen+8]) // LC := 0, flag still set
	var got Envelope
	err := NewDecoder(bytes.NewReader(stream)).Decode(&got)
	if err == nil || !strings.Contains(err.Error(), "zero clock") {
		t.Fatalf("err = %v, want the zero-clock refusal", err)
	}
}

// TestDecodeCausalFrameAllocations: receiving a small flagged frame
// allocates nothing — header and extension land in the decoder's own
// array, the payload in the slab (whose one allocation per slabSize bytes
// of payload rounds to zero here). With the extension in a local array
// it was one allocation per frame: the array escapes through io.ReadFull.
func TestDecodeCausalFrameAllocations(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: []byte("0123456789abcdef"), LC: 7, Seq: 1}
	rd := &loopReader{frame: AppendFrame(nil, &env)}
	dec := NewDecoder(io.MultiReader(bytes.NewReader([]byte{'B'}), rd))
	var got Envelope
	allocs := testing.AllocsPerRun(1000, func() {
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a small causal frame: %v allocations, want 0", allocs)
	}
	if got.LC != 7 || got.Seq != 1 || !bytes.Equal(got.Data, env.Data) {
		t.Errorf("replayed causal frame decoded wrong: %+v", got)
	}
}

// TestCausalTruncatedExtension cuts a causal frame at every byte: each
// cut must error (io.EOF at the frame boundary), never hang or produce a
// phantom envelope.
func TestCausalTruncatedExtension(t *testing.T) {
	env := Envelope{Comm: 9, Src: 1, Dst: 2, Tag: 3, Data: []byte("payload"), LC: 11, Seq: 4}
	full := AppendFrame([]byte{'B'}, &env)
	for cut := 1; cut < len(full); cut++ {
		dec := NewDecoder(bytes.NewReader(full[:cut]))
		var got Envelope
		if err := dec.Decode(&got); err == nil {
			t.Fatalf("cut at %d decoded an envelope from a truncated causal stream", cut)
		}
	}
	dec := NewDecoder(bytes.NewReader(full))
	var got Envelope
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.LC != 11 || got.Seq != 4 || string(got.Data) != "payload" {
		t.Fatalf("uncut causal frame decoded wrong: %+v", got)
	}
}

// TestCausalDecoderStateReset: after a causal frame, a following
// non-causal frame must decode with LC/Seq zeroed (no leakage of the
// previous frame's context).
func TestCausalDecoderStateReset(t *testing.T) {
	a := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 1, Data: []byte("a"), LC: 3, Seq: 2}
	b := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 2, Data: []byte("b")}
	stream := AppendFrame([]byte{'B'}, &a)
	stream = AppendFrame(stream, &b)
	dec := NewDecoder(bytes.NewReader(stream))
	var gotA, gotB Envelope
	if err := dec.Decode(&gotA); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&gotB); err != nil {
		t.Fatal(err)
	}
	if gotB.LC != 0 || gotB.Seq != 0 {
		t.Fatalf("causal context leaked across frames: %+v", gotB)
	}
}

// stateFrameLen is the payload of the paper's smallest process on the
// swap path: 1 MiB of registered state plus the epoch and the state
// format's headers.
const stateFrameLen = 1<<20 + 64

// loopReader serves the same frames forever: a connection that carries
// one state transfer per swap.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.frame) {
		r.off = 0
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	return n, nil
}

// TestDecodeStateFrameOneAllocation: the receiver of a state transfer
// pays for the payload once, at its exact size — not a readStep buffer
// first and a copy into a slightly larger one after.
func TestDecodeStateFrameOneAllocation(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: bytes.Repeat([]byte{0xA5}, stateFrameLen)}
	rd := &loopReader{frame: AppendFrame(nil, &env)}
	dec := NewDecoder(io.MultiReader(bytes.NewReader([]byte{'B'}), rd))
	var got Envelope
	allocs := testing.AllocsPerRun(10, func() {
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a %d-byte frame: %v allocations, want 1", stateFrameLen, allocs)
	}
	if len(got.Data) != stateFrameLen || cap(got.Data) > stateFrameLen+stateFrameLen/64 {
		t.Errorf("payload len %d cap %d, want one right-sized buffer of %d", len(got.Data), cap(got.Data), stateFrameLen)
	}
}

// TestDecodeIntoRecycledPayload: a receiver that puts its state frames
// back reads the next one into the same array, with no allocation at all.
func TestDecodeIntoRecycledPayload(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: bytes.Repeat([]byte{0xA5}, stateFrameLen)}
	rd := &loopReader{frame: AppendFrame(nil, &env)}
	dec := NewDecoder(io.MultiReader(bytes.NewReader([]byte{'B'}), rd))
	var free FreeList
	dec.UseFreeList(&free)
	var got Envelope
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	first := &got.Data[0]
	allocs := testing.AllocsPerRun(10, func() {
		free.Put(got.Data)
		if err := dec.Decode(&got); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("decoding a %d-byte frame into a recycled buffer: %v allocations, want 0", stateFrameLen, allocs)
	}
	if &got.Data[0] != first || !bytes.Equal(got.Data, env.Data) {
		t.Error("recycled decode did not reuse the buffer, or changed the payload")
	}
}

// TestFreeListBounds: what the list refuses, what it hands out for which
// request, and that a full list follows a payload size that changed.
func TestFreeListBounds(t *testing.T) {
	var f FreeList
	f.Put(make([]byte, slabMax))        // may be a slab carving
	f.Put(make([]byte, maxPooledCap+1)) // too large to pin
	if len(f.bufs) != 0 {
		t.Fatalf("list accepted %d buffers it must refuse", len(f.bufs))
	}
	var none *FreeList
	none.Put(make([]byte, 1<<20))
	if none.Get(1<<20) != nil {
		t.Error("nil list handed out a buffer")
	}

	f.Put(make([]byte, 100, 1<<20))
	if f.Get(1<<20+1) != nil {
		t.Error("got a buffer smaller than the request")
	}
	if f.Get(1<<19-1) != nil {
		t.Error("got a buffer more than twice the request")
	}
	b := f.Get(1 << 19)
	if cap(b) != 1<<20 || len(b) != 0 {
		t.Errorf("got len %d cap %d, want the empty 1 MiB buffer", len(b), cap(b))
	}
	if f.Get(1<<19) != nil {
		t.Error("the same buffer was handed out twice")
	}

	for i := 0; i < freeListLen; i++ {
		f.Put(make([]byte, 4<<10))
	}
	f.Put(make([]byte, 1<<20))
	if len(f.bufs) != freeListLen {
		t.Errorf("list holds %d buffers, want %d", len(f.bufs), freeListLen)
	}
	if f.Get(1<<20) == nil {
		t.Error("a full list of stale sizes refused the current one")
	}
}

// TestEncoderKeepsStateSizedBuffer: the sender's pending buffers survive
// Take/Recycle at that size, so a swap per iteration appends into
// capacity the connection already has.
func TestEncoderKeepsStateSizedBuffer(t *testing.T) {
	env := Envelope{Comm: 1, Src: 0, Dst: 1, Tag: 3, Data: make([]byte, stateFrameLen)}
	enc := NewEncoder(CodecBinary)
	defer enc.Close()
	cycle := func() {
		if err := enc.Encode(&env); err != nil {
			t.Fatal(err)
		}
		enc.Recycle(enc.Take())
	}
	cycle() // both buffers of the double-buffered pair grow once
	cycle()
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("encoding a %d-byte frame into a recycled buffer: %v allocations, want 0", stateFrameLen, allocs)
	}
}

// TestDecoderLyingHeaderAllocationBound measures what
// TestDecoderLyingLengthHeader only exercises: a header claiming 1 GiB
// over a stream that delivers 1 KiB costs at most one readStep.
func TestDecoderLyingHeaderAllocationBound(t *testing.T) {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], MaxPayload)
	stream := append([]byte{'B'}, hdr[:]...)
	stream = append(stream, bytes.Repeat([]byte{1}, 1024)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var env Envelope
	err := NewDecoder(bytes.NewReader(stream)).Decode(&env)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("lying header decoded successfully")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > readStep+decoderBufSize+(64<<10) {
		t.Errorf("lying 1 GiB header allocated %d bytes, want at most one readStep (%d) beyond the decoder itself", got, readStep)
	}
}

// TestTailIsPartOfThePayload: an envelope whose payload lies in Data and
// Tail frames, through AppendFrame and through an Encoder, exactly as one
// whose payload is all in Data, and decodes with it all in Data.
func TestTailIsPartOfThePayload(t *testing.T) {
	whole := Envelope{Comm: 3, Src: 1, Dst: 2, Tag: 9, Data: []byte("head|body one|body two|"), LC: 5, Seq: 6}
	split := whole
	split.Data, split.Tail = whole.Data[:5], [][]byte{whole.Data[5:14], nil, whole.Data[14:]}
	if split.Len() != len(whole.Data) {
		t.Fatalf("Len = %d, want %d", split.Len(), len(whole.Data))
	}
	want := AppendFrame(nil, &whole)
	if got := AppendFrame(nil, &split); !bytes.Equal(got, want) {
		t.Fatalf("AppendFrame with a tail:\n%x\nwant\n%x", got, want)
	}
	enc := NewEncoder(CodecBinary)
	if err := enc.Encode(&split); err != nil {
		t.Fatal(err)
	}
	stream := enc.Take()
	if !bytes.Equal(stream[1:], want) {
		t.Fatalf("Encode with a tail:\n%x\nwant\n%x", stream[1:], want)
	}
	var got Envelope
	if err := NewDecoder(bytes.NewReader(stream)).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Tail != nil || !bytes.Equal(got.Data, whole.Data) {
		t.Fatalf("decoded payload %q and tail %q, want %q in Data", got.Data, got.Tail, whole.Data)
	}
}

// TestPayloadReaderKeepsStreamFramed: a frame's payload read through
// Payload, in part or not at all, leaves the stream at the next frame
// once SkipPayload discards the rest; a frame the stream cuts short fails
// the reader and SkipPayload with io.ErrUnexpectedEOF.
func TestPayloadReaderKeepsStreamFramed(t *testing.T) {
	envs := []Envelope{
		{Comm: 1, Tag: 1, Data: bytes.Repeat([]byte{1}, 100<<10)},
		{Comm: 1, Tag: 2, Data: []byte("short")},
		{Comm: 1, Tag: 3, Data: bytes.Repeat([]byte{3}, 300)},
	}
	stream := []byte{byte(CodecBinary)}
	for i := range envs {
		stream = AppendFrame(stream, &envs[i])
	}
	dec := NewDecoder(bytes.NewReader(stream))
	for i, read := range []int{1000, 0, 300} {
		var env Envelope
		n, err := dec.DecodeHeader(&env)
		if err != nil || env.Tag != envs[i].Tag || n != len(envs[i].Data) {
			t.Fatalf("frame %d: header tag %d, %d bytes, %v", i, env.Tag, n, err)
		}
		got := make([]byte, read)
		if _, err := io.ReadFull(dec.Payload(n), got); err != nil || !bytes.Equal(got, envs[i].Data[:read]) {
			t.Fatalf("frame %d: read %d of its payload: %v", i, read, err)
		}
		if err := dec.SkipPayload(); err != nil {
			t.Fatalf("frame %d: skip the rest: %v", i, err)
		}
	}
	var env Envelope
	if _, err := dec.DecodeHeader(&env); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	cut := NewDecoder(bytes.NewReader(stream[:1+24+50<<10]))
	n, err := cut.DecodeHeader(&env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(cut.Payload(n), make([]byte, n)); err != io.ErrUnexpectedEOF {
		t.Fatalf("reading a cut frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if err := cut.SkipPayload(); err != io.ErrUnexpectedEOF {
		t.Fatalf("skipping the rest of a cut frame: %v, want io.ErrUnexpectedEOF", err)
	}
}
