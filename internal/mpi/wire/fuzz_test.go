package wire

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the stream decoder: truncated,
// oversized and garbage frames must error (or cleanly EOF), never panic,
// hang or over-allocate. Decoded envelopes must respect the framing
// invariants, and because an envelope has exactly one encoding, whatever
// the decoder accepted re-encodes to the very bytes it was decoded from.
func FuzzDecode(f *testing.F) {
	// Seeds: a valid plain frame, a valid causal frame, and adversarial
	// shapes (refused protocol bytes, truncated header, lying length,
	// truncated extension).
	env := Envelope{Comm: 3, Src: 1, Dst: 0, Tag: 7, Data: []byte("seed")}
	f.Add(AppendFrame([]byte{'B'}, &env))
	cenv := env
	cenv.LC, cenv.Seq = 5, 2
	f.Add(AppendFrame([]byte{'B'}, &cenv))
	f.Add(AppendFrame([]byte{'G'}, &env))  // must reject: valid frames behind a wrong protocol byte
	f.Add(AppendFrame([]byte{'C'}, &cenv)) // must reject
	f.Add([]byte{'Z', 1, 2, 3})            // must reject
	f.Add([]byte{'B', 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{'B', 0x40, 0x00, 0x00, 0x01}) // MaxPayload+1
	f.Add([]byte{'B', 0x80, 0x00, 0x00, 0x04}) // causal flag, truncated extension
	f.Add([]byte{'B'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		var decoded []Envelope
		for i := 0; i < 1<<16; i++ {
			var env Envelope
			err := dec.Decode(&env)
			if err != nil {
				break // EOF or a framing error; both fine
			}
			if len(env.Data) > MaxPayload {
				t.Fatalf("decoded payload %d exceeds MaxPayload", len(env.Data))
			}
			decoded = append(decoded, env)
		}
		if len(decoded) == 0 {
			return
		}

		// Re-encode what was decoded: it must be the prefix of the input
		// the decoder consumed, byte for byte, protocol byte first — so
		// every field survived, LC and Seq included, no payload byte was
		// invented, and nothing was decoded from a stream not opening 'B'.
		enc := NewEncoder(CodecBinary)
		defer enc.Close()
		for i := range decoded {
			if err := enc.Encode(&decoded[i]); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
		}
		buf := enc.Take()
		defer enc.Recycle(buf)
		if len(buf) > len(data) || !bytes.Equal(buf, data[:len(buf)]) {
			t.Fatalf("re-encoding %d decoded envelopes gives\n%x\nwhich is not a prefix of the input\n%x", len(decoded), buf, data)
		}
	})
}
