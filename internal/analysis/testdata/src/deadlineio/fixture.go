// Package fixture seeds deadline-discipline violations for the deadlineio
// golden test: net.Conn reads and writes (direct or through conn-backed
// codec streams) with no deadline armed in the same function.
package fixture

import (
	"encoding/gob"
	"encoding/json"
	"io"
	"net"
	"time"
)

func readNoDeadline(conn net.Conn, buf []byte) (int, error) {
	return conn.Read(buf) // want `net\.Conn\.Read with no deadline set in this function`
}

func writeNoDeadline(conn net.Conn, buf []byte) (int, error) {
	return conn.Write(buf) // want `net\.Conn\.Write with no deadline set in this function`
}

// readWithDeadline arms the deadline first: no finding.
func readWithDeadline(conn net.Conn, buf []byte) (int, error) {
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	return conn.Read(buf)
}

func decodeNoDeadline(conn net.Conn) error {
	dec := gob.NewDecoder(conn)
	var x int
	return dec.Decode(&x) // want `Decode on a conn-backed stream with no deadline set in this function`
}

func chainedEncodeNoDeadline(conn net.Conn) error {
	return json.NewEncoder(conn).Encode(42) // want `Encode on a conn-backed stream with no deadline set in this function`
}

// decodeWithDeadline arms before decoding: no finding.
func decodeWithDeadline(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	var x int
	return gob.NewDecoder(conn).Decode(&x)
}

func readFullNoDeadline(conn net.Conn, buf []byte) error {
	_, err := io.ReadFull(conn, buf) // want `io\.ReadFull on a net\.Conn with no deadline set in this function`
	return err
}

// ignoredRead carries the suppression directive reserved for reads that are
// unbounded by design (a reader loop unblocked by socket close).
func ignoredRead(conn net.Conn, buf []byte) (int, error) {
	//swapvet:ignore deadlineio -- fixture: reader unblocked by close
	return conn.Read(buf)
}

// closureAfterArm writes inside a closure after the enclosing function
// armed the deadline: the per-function scan accepts it.
func closureAfterArm(conn net.Conn) {
	_ = conn.SetDeadline(time.Now().Add(time.Second))
	reply := func(data []byte) {
		_, _ = conn.Write(data)
	}
	reply(nil)
}

// bufferDecode is not conn I/O: no finding.
func bufferDecode(r io.Reader) error {
	var x int
	return gob.NewDecoder(r).Decode(&x)
}

func vectoredWriteNoDeadline(conn net.Conn, hdr, payload []byte) error {
	v := net.Buffers{hdr, payload}
	_, err := v.WriteTo(conn) // want `net\.Buffers\.WriteTo on a net\.Conn with no deadline set in this function`
	return err
}

// vectoredWriteWithDeadline arms first: no finding.
func vectoredWriteWithDeadline(conn net.Conn, hdr, payload []byte) error {
	_ = conn.SetWriteDeadline(time.Now().Add(time.Second))
	v := net.Buffers{hdr, payload}
	_, err := v.WriteTo(conn)
	return err
}
