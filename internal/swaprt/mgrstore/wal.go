package mgrstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// WAL framing, following the wire codec's discipline (internal/mpi/wire):
// a fixed big-endian header in front of every payload, explicit bounds on
// the length field, and truncation handled as a first-class outcome
// rather than an error path.
//
//	offset 0: uint32 payload length
//	offset 4: uint32 CRC-32 (IEEE) of the payload
//	offset 8: payload (JSON-encoded Record)
//
// The CRC covers the payload only: a torn header and a torn payload are
// both detected by short reads, and a bit flip anywhere in the payload by
// the checksum. Replay treats anything that fails these checks as the
// torn tail of a crashed append — every frame before it is intact (each
// Append is fsynced before the next begins), so stopping there loses at
// most the records of the one call whose ack never happened, or a
// suffix of them.
//
// The snapshot file reuses the same frame around a JSON-encoded State:
// one frame, read back with the same bounds and checksum checks. Unlike
// the WAL there is no tail to tolerate — a snapshot that fails its frame
// is ErrCorrupt, because the history it replaced is gone.

const (
	walHeaderLen = 8
	// maxWALRecord bounds one frame's payload so a corrupt length field
	// cannot trigger an absurd allocation. Records and snapshots are small
	// JSON objects; 1 MiB is orders of magnitude above any real one.
	maxWALRecord = 1 << 20
)

// appendFrame appends one framed payload to buf and returns the result.
func appendFrame(buf, payload []byte) ([]byte, error) {
	if len(payload) > maxWALRecord {
		return nil, fmt.Errorf("mgrstore: frame payload %d bytes exceeds %d", len(payload), maxWALRecord)
	}
	var hdr [walHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...), nil
}

// appendRecordFrame appends one framed, JSON-encoded record to buf.
func appendRecordFrame(buf []byte, r *Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return buf, fmt.Errorf("mgrstore: encode record: %w", err)
	}
	return appendFrame(buf, payload)
}

// decodeFrame reads the frame at data[off:]. ok is false when the bytes
// there do not hold one complete, checksummed frame — for the WAL that
// is the torn tail, for a snapshot it is corruption; the caller decides.
func decodeFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if len(data)-off < walHeaderLen {
		return nil, off, false // torn or absent header
	}
	n := int(binary.BigEndian.Uint32(data[off : off+4]))
	sum := binary.BigEndian.Uint32(data[off+4 : off+8])
	if n > maxWALRecord || len(data)-off-walHeaderLen < n {
		return nil, off, false // implausible length or torn payload
	}
	payload = data[off+walHeaderLen : off+walHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, off, false // payload corrupted in place
	}
	return payload, off + walHeaderLen + n, true
}

// replayWAL decodes frames from data, applying each valid record with
// seq > afterSeq to st. It returns the number of records applied and the
// byte offset of the end of the last valid frame — the point to truncate
// to so the torn tail never pollutes future appends. Replay never
// returns an error: a bad frame IS the end of the log.
func replayWAL(data []byte, st *State, afterSeq uint64) (applied int, validLen int) {
	off := 0
	for {
		payload, next, ok := decodeFrame(data, off)
		if !ok {
			return applied, off
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return applied, off // framing intact but body unparseable
		}
		off = next
		// The snapshot already holds records up to afterSeq; a crash
		// between snapshot rename and WAL truncation leaves them in the
		// log, and applying them again would double-count. Skip, do not
		// stop: newer records follow.
		if rec.Seq > afterSeq {
			st.Apply(&rec)
			applied++
		}
	}
}

// encodeSnapshot frames a JSON-encoded state.
func encodeSnapshot(st *State) ([]byte, error) {
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("mgrstore: encode snapshot: %w", err)
	}
	return appendFrame(nil, payload)
}

// decodeSnapshot reads back one framed state. Any framing or checksum
// failure is ErrCorrupt: a snapshot has no tolerable torn tail.
func decodeSnapshot(data []byte) (*State, error) {
	payload, next, ok := decodeFrame(data, 0)
	if !ok || next != len(data) {
		return nil, fmt.Errorf("mgrstore: snapshot framing/checksum failed: %w", ErrCorrupt)
	}
	st := &State{}
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("mgrstore: snapshot body: %v: %w", err, ErrCorrupt)
	}
	return st, nil
}
