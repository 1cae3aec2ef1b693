package swaprt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/swaprt/mgrstore"
)

// The checkpoint store models the paper's checkpoint/restart technique
// for the live runtime: "application state information is written to a
// central location. Upon application restart, the checkpoint is read by
// each process." The store is a TCP blob service keyed by string; each
// rank writes its registered state under its own key and a restarted run
// reads it back.
//
// Wire format, one operation per connection: a JSON header line
// {"op":"put"|"get","key":...,"size":N} followed by N raw bytes for put;
// the response is a JSON line {"ok":...,"size":N,"error":...} followed by
// N raw bytes for get.

type storeHeader struct {
	Op   string `json:"op"`
	Key  string `json:"key"`
	Size int64  `json:"size,omitempty"`
}

type storeReply struct {
	OK    bool   `json:"ok"`
	Size  int64  `json:"size,omitempty"`
	Error string `json:"error,omitempty"`
}

// maxCheckpointBytes bounds a single blob (1 GiB, the top of the paper's
// process-size range) so a malformed header cannot trigger an absurd
// allocation.
const maxCheckpointBytes = 1 << 30

// defaultStoreConnTimeout bounds one store connection's lifetime when no
// explicit timeout is configured.
const defaultStoreConnTimeout = 60 * time.Second

// ErrCheckpointCorrupt reports that a durably stored checkpoint blob
// failed its CRC verification on read: the bytes on disk are not the
// bytes that were acked, and restoring from them would corrupt the
// restarted application. Callers must treat it like a missing
// checkpoint, never like a transient failure.
var ErrCheckpointCorrupt = errors.New("swaprt: checkpoint blob failed CRC verification")

// StoreServer is a central checkpoint store: in-memory by default, or
// durable when created with NewStoreServerDir — each blob then lives in
// its own CRC-framed file, written via temp+fsync+rename so a crashed
// put can never leave a half-written checkpoint under the key, and
// verified on every get.
type StoreServer struct {
	mu          sync.Mutex
	blobs       map[string][]byte
	dir         string // "" selects the in-memory map
	logf        func(string, ...any)
	connTimeout time.Duration
	clock       clock.Clock
}

// NewStoreServer creates an empty in-memory store. logf may be nil.
func NewStoreServer(logf func(string, ...any)) *StoreServer {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &StoreServer{blobs: map[string][]byte{}, logf: logf}
}

// NewStoreServerDir creates a durable store over dir (created if
// missing). Blobs survive store restarts. logf may be nil.
func NewStoreServerDir(dir string, logf func(string, ...any)) (*StoreServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("swaprt: checkpoint store dir: %w", err)
	}
	s := NewStoreServer(logf)
	s.dir = dir
	return s, nil
}

// blobPath maps a key to its file. The key is URL-escaped into a single
// path component with a fixed prefix and suffix, so hostile keys
// ("../x", absolute paths) cannot escape the store directory.
func (s *StoreServer) blobPath(key string) string {
	return filepath.Join(s.dir, "k_"+url.PathEscape(key)+".ckpt")
}

// blobHeaderLen prefixes each durable blob: a 4-byte big-endian
// CRC32-IEEE of the body, the same checksum discipline as the wire codec
// and the manager WAL.
const blobHeaderLen = 4

// putFile durably stores one blob, CRC-framed, with
// mgrstore.WriteFileDurable. Runs outside the store mutex — temp names
// are unique and the rename is atomic, so concurrent puts to one key
// linearize to "last ack wins".
func (s *StoreServer) putFile(key string, body []byte) error {
	framed := make([]byte, blobHeaderLen+len(body))
	binary.BigEndian.PutUint32(framed, crc32.ChecksumIEEE(body))
	copy(framed[blobHeaderLen:], body)
	return mgrstore.WriteFileDurable(s.blobPath(key), framed)
}

// getFile reads and CRC-verifies one durable blob.
func (s *StoreServer) getFile(key string) ([]byte, error) {
	framed, err := os.ReadFile(s.blobPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("no checkpoint %q", key)
		}
		return nil, err
	}
	if len(framed) < blobHeaderLen {
		return nil, fmt.Errorf("checkpoint %q: %w (short file)", key, ErrCheckpointCorrupt)
	}
	body := framed[blobHeaderLen:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(framed) {
		return nil, fmt.Errorf("checkpoint %q: %w", key, ErrCheckpointCorrupt)
	}
	return body, nil
}

// SetConnTimeout bounds each connection's whole conversation (one
// operation). <= 0 restores the 60s default. Set before Serve.
func (s *StoreServer) SetConnTimeout(d time.Duration) { s.connTimeout = d }

// SetClock installs the clock that translates the connection timeout
// into a real socket deadline (a scaled clock compresses it). Nil
// restores clock.Real. Set before Serve.
func (s *StoreServer) SetClock(c clock.Clock) { s.clock = c }

// Keys reports the stored keys (for inspection and tests).
func (s *StoreServer) Keys() int {
	if s.dir != "" {
		matches, _ := filepath.Glob(filepath.Join(s.dir, "k_*.ckpt"))
		return len(matches)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.blobs)
}

// Serve accepts connections until the listener closes.
func (s *StoreServer) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *StoreServer) serveConn(conn net.Conn) {
	defer conn.Close()
	timeout := s.connTimeout
	if timeout <= 0 {
		timeout = defaultStoreConnTimeout
	}
	_ = conn.SetDeadline(clock.RealDeadline(clock.Or(s.clock), timeout))
	dec := json.NewDecoder(conn)
	var hdr storeHeader
	if err := dec.Decode(&hdr); err != nil {
		s.logf("ckptstore: bad header from %s: %v", conn.RemoteAddr(), err)
		return
	}
	reply := func(r storeReply, body []byte) {
		data, _ := json.Marshal(r)
		if _, err := conn.Write(data); err != nil {
			return
		}
		if body != nil {
			_, _ = conn.Write(body)
		}
	}
	switch hdr.Op {
	case "put":
		if hdr.Size < 0 || hdr.Size > maxCheckpointBytes {
			reply(storeReply{Error: fmt.Sprintf("size %d out of range", hdr.Size)}, nil)
			return
		}
		body, err := readBody(dec, conn, hdr.Size)
		if err != nil {
			reply(storeReply{Error: "short body"}, nil)
			return
		}
		if s.dir != "" {
			// Durability before ack: the reply leaves only after the blob
			// and its directory entry are fsynced.
			if err := s.putFile(hdr.Key, body); err != nil {
				s.logf("ckptstore: put %q: %v", hdr.Key, err)
				reply(storeReply{Error: err.Error()}, nil)
				return
			}
		} else {
			s.mu.Lock()
			s.blobs[hdr.Key] = body
			s.mu.Unlock()
		}
		s.logf("ckptstore: put %q (%d bytes)", hdr.Key, hdr.Size)
		reply(storeReply{OK: true}, nil)
	case "get":
		var body []byte
		if s.dir != "" {
			var err error
			body, err = s.getFile(hdr.Key)
			if err != nil {
				s.logf("ckptstore: get %q: %v", hdr.Key, err)
				reply(storeReply{Error: err.Error()}, nil)
				return
			}
		} else {
			var ok bool
			s.mu.Lock()
			body, ok = s.blobs[hdr.Key]
			s.mu.Unlock()
			if !ok {
				reply(storeReply{Error: fmt.Sprintf("no checkpoint %q", hdr.Key)}, nil)
				return
			}
		}
		reply(storeReply{OK: true, Size: int64(len(body))}, body)
	default:
		reply(storeReply{Error: fmt.Sprintf("unknown op %q", hdr.Op)}, nil)
	}
}

// readBody reads exactly size raw bytes that follow a JSON header decoded
// by dec from conn: the decoder may have buffered part (or all) of the
// body past the JSON value, so drain its buffer before the connection.
func readBody(dec *json.Decoder, conn io.Reader, size int64) ([]byte, error) {
	body := make([]byte, size)
	if _, err := io.ReadFull(io.MultiReader(dec.Buffered(), conn), body); err != nil {
		return nil, err
	}
	return body, nil
}

// StoreClient talks to a checkpoint store.
type StoreClient struct {
	Addr    string
	Timeout time.Duration // per operation; zero means 30 s
	// Attempts bounds the tries per operation (first try + retries).
	// Only transport failures — dial errors, short reads, dropped
	// connections — are retried; an error the store itself reported in a
	// decoded reply is a definitive answer and returns immediately.
	// <= 0 selects 1 (no retry), preserving the old behavior.
	Attempts int
	// RetryBackoff is the sleep before the first retry, doubling each
	// further retry. <= 0 selects 50ms.
	RetryBackoff time.Duration
	// Clock drives the retry backoff and translates Timeout into real
	// socket deadlines, so tests advance a fake clock instead of paying
	// the schedule in real seconds. Nil means clock.Real.
	Clock clock.Clock
}

// storeErr is an error the store itself reported in a decoded reply: the
// transport worked, the operation was simply refused (unknown key, size
// out of range). Retrying it would re-ask a question already answered.
type storeErr struct{ msg string }

func (e storeErr) Error() string { return e.msg }

func isStoreError(err error) bool {
	var se storeErr
	return errors.As(err, &se)
}

// retry runs op up to c.Attempts times, backing off between transport
// failures and stopping early on success or a store-reported error.
func (c StoreClient) retry(op func() error) error {
	attempts := c.Attempts
	if attempts <= 0 {
		attempts = 1
	}
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			clock.Or(c.Clock).Sleep(backoff)
			backoff *= 2
		}
		err = op()
		if err == nil || isStoreError(err) {
			return err
		}
	}
	return err
}

// dial connects to the store. The caller arms the operation deadline on the
// returned connection before any read or write (swapvet's deadlineio rule
// checks the arm at the I/O site, so it lives with the I/O, not in here).
func (c StoreClient) dial() (net.Conn, time.Duration, error) {
	timeout := c.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	conn, err := net.DialTimeout("tcp", c.Addr, clock.RealTimeout(clock.Or(c.Clock), timeout))
	if err != nil {
		return nil, 0, fmt.Errorf("swaprt: dial checkpoint store: %w", err)
	}
	return conn, timeout, nil
}

// Put stores data under key, replacing any previous blob. Transport
// failures are retried up to c.Attempts times.
func (c StoreClient) Put(key string, data []byte) error {
	return c.retry(func() error { return c.put(key, data) })
}

func (c StoreClient) put(key string, data []byte) error {
	conn, timeout, err := c.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(clock.RealDeadline(clock.Or(c.Clock), timeout))
	hdr, _ := json.Marshal(storeHeader{Op: "put", Key: key, Size: int64(len(data))})
	if _, err := conn.Write(hdr); err != nil {
		return fmt.Errorf("swaprt: store put: %w", err)
	}
	if _, err := conn.Write(data); err != nil {
		return fmt.Errorf("swaprt: store put body: %w", err)
	}
	var rep storeReply
	if err := json.NewDecoder(conn).Decode(&rep); err != nil {
		return fmt.Errorf("swaprt: store put reply: %w", err)
	}
	if !rep.OK {
		return fmt.Errorf("swaprt: store put: %w", storeErr{rep.Error})
	}
	return nil
}

// Get fetches the blob stored under key. Transport failures are retried
// up to c.Attempts times.
func (c StoreClient) Get(key string) ([]byte, error) {
	var body []byte
	err := c.retry(func() error {
		var opErr error
		body, opErr = c.get(key)
		return opErr
	})
	return body, err
}

func (c StoreClient) get(key string) ([]byte, error) {
	conn, timeout, err := c.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(clock.RealDeadline(clock.Or(c.Clock), timeout))
	hdr, _ := json.Marshal(storeHeader{Op: "get", Key: key})
	if _, err := conn.Write(hdr); err != nil {
		return nil, fmt.Errorf("swaprt: store get: %w", err)
	}
	dec := json.NewDecoder(conn)
	var rep storeReply
	if err := dec.Decode(&rep); err != nil {
		return nil, fmt.Errorf("swaprt: store get reply: %w", err)
	}
	if !rep.OK {
		return nil, fmt.Errorf("swaprt: store get: %w", storeErr{rep.Error})
	}
	if rep.Size < 0 || rep.Size > maxCheckpointBytes {
		return nil, fmt.Errorf("swaprt: store get: %w", storeErr{fmt.Sprintf("size %d out of range", rep.Size)})
	}
	body, err := readBody(dec, conn, rep.Size)
	if err != nil {
		return nil, fmt.Errorf("swaprt: store get body: %w", err)
	}
	return body, nil
}

// CheckpointTo writes the session's registered state to the store under
// key (typically including the world rank, e.g. "app1/rank3").
func (s *Session) CheckpointTo(client StoreClient, key string) error {
	var buf bytes.Buffer
	if err := s.SaveCheckpoint(&buf); err != nil {
		return err
	}
	return client.Put(key, buf.Bytes())
}

// RestoreFrom reads the blob under key and restores the registered state.
func (s *Session) RestoreFrom(client StoreClient, key string) error {
	data, err := client.Get(key)
	if err != nil {
		return err
	}
	return s.LoadCheckpoint(bytes.NewReader(data))
}
