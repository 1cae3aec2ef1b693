package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Additional operations beyond the core set: typed helpers, scatter,
// combined send-receive, variable-size allgather, element-wise vector
// reductions, and a non-blocking probe.

const tagScatter = -8

// SendFloat64s sends a float64 vector.
func (c *Comm) SendFloat64s(to, tag int, xs []float64) error {
	return c.Send(to, tag, packFloats(xs))
}

// RecvFloat64s receives a float64 vector.
func (c *Comm) RecvFloat64s(from, tag int) ([]float64, Status, error) {
	data, st, err := c.Recv(from, tag)
	if err != nil {
		return nil, st, err
	}
	xs, err := unpackFloats(data)
	return xs, st, err
}

// SendRecv sends sendData to `to` and receives from `from` in one call.
// Because sends are eager (buffered), the combined operation cannot
// deadlock even when both peers target each other — on TCP as long as
// sendData fits the kernel's socket buffers (see transport.send).
func (c *Comm) SendRecv(to, sendTag int, sendData []byte, from, recvTag int) ([]byte, Status, error) {
	if err := c.Send(to, sendTag, sendData); err != nil {
		return nil, Status{}, err
	}
	return c.Recv(from, recvTag)
}

// Scatter distributes parts[i] from root to comm rank i and returns the
// caller's part. Only root supplies parts (len must equal the comm size);
// other members pass nil.
func (c *Comm) Scatter(root int, parts [][]byte) ([]byte, error) {
	c.checkMember()
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: scatter root %d of %d", root, n)
	}
	if c.Rank() == root {
		if len(parts) != n {
			return nil, fmt.Errorf("mpi: scatter with %d parts for %d members", len(parts), n)
		}
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			if err := c.send(i, tagScatter, parts[i]); err != nil {
				return nil, err
			}
		}
		return append([]byte(nil), parts[root]...), nil
	}
	data, _, err := c.recv(root, tagScatter)
	return data, err
}

// AllGather gathers each member's (variable-size) data and distributes
// the comm-rank-indexed slice to every member.
func (c *Comm) AllGather(data []byte) ([][]byte, error) {
	parts, err := c.Gather(0, data)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.Rank() == 0 {
		packed = packParts(parts)
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return unpackParts(packed)
}

// ReduceFloat64s element-wise reduces equal-length vectors at root; root
// gets the combined vector, others nil. Vector lengths must match across
// members.
func (c *Comm) ReduceFloat64s(root int, op ReduceOp, xs []float64) ([]float64, error) {
	c.checkMember()
	c.w.counters[c.me].reduces.Add(1)
	if c.Rank() != root {
		return nil, c.send(root, tagReduce, packFloats(xs))
	}
	acc := append([]float64(nil), xs...)
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		got, _, err := c.recv(i, tagReduce)
		if err != nil {
			return nil, err
		}
		vec, err := unpackFloats(got)
		if err != nil {
			return nil, err
		}
		if len(vec) != len(acc) {
			return nil, fmt.Errorf("mpi: reduce vector length %d != %d", len(vec), len(acc))
		}
		for j := range acc {
			acc[j] = op(acc[j], vec[j])
		}
	}
	return acc, nil
}

// AllReduceFloat64s element-wise reduces vectors and distributes the
// result to every member.
func (c *Comm) AllReduceFloat64s(op ReduceOp, xs []float64) ([]float64, error) {
	v, err := c.ReduceFloat64s(0, op, xs)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.Rank() == 0 {
		packed = packFloats(v)
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	return unpackFloats(packed)
}

// Iprobe reports, without blocking or consuming anything, whether a
// message matching (from, tag) is available (MPI_Iprobe).
func (c *Comm) Iprobe(from, tag int) (bool, Status) {
	c.checkMember()
	srcWorld := AnySource
	if from != AnySource {
		if from < 0 || from >= len(c.members) {
			return false, Status{}
		}
		srcWorld = c.members[from]
	}
	env, ok := c.w.boxes[c.me].peek(c.id, srcWorld, tag)
	if !ok {
		return false, Status{}
	}
	src := -1
	for i, m := range c.members {
		if m == env.Src {
			src = i
			break
		}
	}
	return true, Status{Source: src, Tag: env.Tag}
}

// packing helpers

func packFloats(xs []float64) []byte {
	out := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.BigEndian.PutUint64(out[i*8:], math.Float64bits(x))
	}
	return out
}

func unpackFloats(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("mpi: float vector payload of %d bytes", len(data))
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.BigEndian.Uint64(data[i*8:]))
	}
	return out, nil
}

func packParts(parts [][]byte) []byte {
	size := 8
	for _, p := range parts {
		size += 8 + len(p)
	}
	out := make([]byte, 0, size)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(len(parts)))
	out = append(out, b[:]...)
	for _, p := range parts {
		binary.BigEndian.PutUint64(b[:], uint64(len(p)))
		out = append(out, b[:]...)
		out = append(out, p...)
	}
	return out
}

func unpackParts(data []byte) ([][]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("mpi: truncated parts payload")
	}
	n := binary.BigEndian.Uint64(data)
	data = data[8:]
	// Each part needs at least its 8-byte length header, so a count
	// beyond len(data)/8 is malformed — and must be rejected before
	// sizing any allocation by it.
	if n > uint64(len(data)/8) {
		return nil, fmt.Errorf("mpi: parts payload claims %d parts in %d bytes", n, len(data))
	}
	out := make([][]byte, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(data) < 8 {
			return nil, fmt.Errorf("mpi: truncated parts payload")
		}
		l := binary.BigEndian.Uint64(data)
		data = data[8:]
		if uint64(len(data)) < l {
			return nil, fmt.Errorf("mpi: truncated parts payload")
		}
		out = append(out, append([]byte(nil), data[:l]...))
		data = data[l:]
	}
	return out, nil
}
