package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// worldCommID identifies the world communicator.
const worldCommID uint64 = 0

// Reserved internal tags (user tags must be non-negative).
const (
	tagBarrierIn  = -2
	tagBarrierOut = -3
	tagBcast      = -4
	tagGather     = -5
	tagReduce     = -6
	tagSplit      = -7
	tagAnnounce   = -9 // -8 is tagScatter (ops.go)
)

// Comm is a communicator: an ordered group of world ranks with an ID that
// scopes message matching. Comm values are cheap rank-local descriptors;
// as long as every member constructs the group from the same information,
// no handshake is needed (which is what lets the swapping runtime rebuild
// its private "active" communicator without involving parked spares).
type Comm struct {
	w       *World
	me      int // world rank of the owner
	id      uint64
	members []int // world ranks, in comm-rank order
}

// Rank reports the calling process's rank within the communicator, or -1
// if it is not a member.
func (c *Comm) Rank() int {
	for i, m := range c.members {
		if m == c.me {
			return i
		}
	}
	return -1
}

// Size reports the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// Members returns a copy of the member list (world ranks in comm order).
func (c *Comm) Members() []int { return append([]int(nil), c.members...) }

// WorldRank translates a comm rank to a world rank.
func (c *Comm) WorldRank(commRank int) int { return c.members[commRank] }

// ID reports the communicator ID (for diagnostics).
func (c *Comm) ID() uint64 { return c.id }

func (c *Comm) checkMember() {
	if c.Rank() < 0 {
		panic(fmt.Sprintf("mpi: world rank %d is not a member of comm %#x", c.me, c.id))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 {
		panic(fmt.Sprintf("mpi: user tags must be non-negative, got %d", tag))
	}
}

// Status describes a received message.
type Status struct {
	Source int // comm rank of the sender
	Tag    int
}

// Send sends data to the comm rank `to` with the given tag. It does not
// wait for the receiver (buffered, eager semantics), except on TCP for a
// message larger than the kernel's socket buffers, which goes out as the
// receiver reads it (see transport.send).
func (c *Comm) Send(to, tag int, data []byte) error {
	c.checkMember()
	c.checkTag(tag)
	return c.send(to, tag, data)
}

// send is Send without the user-tag restriction, for collectives.
func (c *Comm) send(to, tag int, data []byte) error {
	if to < 0 || to >= len(c.members) {
		return fmt.Errorf("mpi: send to comm rank %d of %d", to, len(c.members))
	}
	// No defensive copy here: the transport is done with the caller's
	// slice when send returns (the TCP path has written it to the socket
	// or serialized it into its pending buffer, the in-process path
	// copies on push), so the hot path stays allocation-free.
	ctr := c.w.counters[c.me]
	tr := c.w.Tracer()
	var t0 float64
	if tr.Enabled() {
		t0 = tr.Now()
	}
	env := envelope{Comm: c.id, Src: c.me, Dst: c.members[to], Tag: tag, Data: data}
	if cz := c.w.causal; cz != nil {
		// Lamport tick + sequence, stamped before the transport so the
		// receiver's merge always sees the sender's clock at send time.
		env.LC, env.Seq = cz.OnSend(c.me)
	}
	start := c.w.clk.Now()
	err := c.w.transport.send(env)
	ctr.sendBlock.Add(uint64(c.w.clk.Since(start)))
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindMPISend, Rank: c.me, T: t0,
			Dur: tr.Now() - t0, Peer: c.members[to], Bytes: int64(len(data))})
		if env.LC != 0 {
			tr.Emit(obs.Event{Kind: obs.KindMsgSend, Rank: c.me, T: t0,
				Peer: c.members[to], Bytes: int64(len(data)), LC: env.LC, Seq: env.Seq})
		}
	}
	if err != nil {
		return err
	}
	ctr.msgsSent.Inc()
	ctr.bytesSent.Add(uint64(len(data)))
	return nil
}

// Recv blocks until a message from comm rank `from` (or AnySource) with
// the given tag (or AnyTag) arrives.
func (c *Comm) Recv(from, tag int) ([]byte, Status, error) {
	c.checkMember()
	if tag != AnyTag {
		c.checkTag(tag)
	}
	return c.recv(from, tag)
}

func (c *Comm) recv(from, tag int) ([]byte, Status, error) {
	srcWorld := AnySource
	if from != AnySource {
		if from < 0 || from >= len(c.members) {
			return nil, Status{}, fmt.Errorf("mpi: recv from comm rank %d of %d", from, len(c.members))
		}
		srcWorld = c.members[from]
	}
	tr := c.w.Tracer()
	var t0 float64
	if tr.Enabled() {
		t0 = tr.Now()
	}
	env, err := c.w.boxes[c.me].pop(c.id, srcWorld, tag)
	if err != nil {
		return nil, Status{}, err
	}
	c.observeRecv(tr, env, t0)
	ctr := c.w.counters[c.me]
	ctr.msgsRecv.Inc()
	ctr.bytesRecv.Add(uint64(len(env.Data)))
	src := -1
	for i, m := range c.members {
		if m == env.Src {
			src = i
			break
		}
	}
	return env.Data, Status{Source: src, Tag: env.Tag}, nil
}

// RecvTimeout is Recv with a deadline: it returns ErrRecvTimeout if no
// matching message arrives within timeout. A timed-out receive consumes
// nothing — a message that arrives later can still be matched by a
// subsequent receive. The swapping runtime uses this to bound the state
// transfer to a spare that may have died.
func (c *Comm) RecvTimeout(from, tag int, timeout time.Duration) ([]byte, Status, error) {
	c.checkMember()
	if tag != AnyTag {
		c.checkTag(tag)
	}
	srcWorld := AnySource
	if from != AnySource {
		if from < 0 || from >= len(c.members) {
			return nil, Status{}, fmt.Errorf("mpi: recv from comm rank %d of %d", from, len(c.members))
		}
		srcWorld = c.members[from]
	}
	tr := c.w.Tracer()
	var t0 float64
	if tr.Enabled() {
		t0 = tr.Now()
	}
	env, err := c.w.boxes[c.me].popDeadline(c.w.clk, c.id, srcWorld, tag, c.w.clk.Now().Add(timeout))
	if err != nil {
		return nil, Status{}, err
	}
	c.observeRecv(tr, env, t0)
	ctr := c.w.counters[c.me]
	ctr.msgsRecv.Inc()
	ctr.bytesRecv.Add(uint64(len(env.Data)))
	src := -1
	for i, m := range c.members {
		if m == env.Src {
			src = i
			break
		}
	}
	return env.Data, Status{Source: src, Tag: env.Tag}, nil
}

// Release gives the buffer of a received message back to this rank, so
// its next large receive is read into it instead of allocating. A rank
// keeps a few such buffers, and keeps them to itself, as it would with
// one rank per process: what one rank released never turns up in another
// rank's message. Release is
// optional and only pays for messages the size of a state transfer; the
// caller must have copied out what it needs and must not touch data (or
// anything sliced from it) again.
func (c *Comm) Release(data []byte) { c.w.free[c.me].Put(data) }

// observeRecv emits the MPIRecv event for a matched message and, on a
// causal world, merges the piggybacked sender clock (Lamport receive
// rule) and emits the matching MsgRecv edge. t0 is when the receive
// started waiting; the MsgRecv edge is stamped at match time so it never
// precedes its send.
func (c *Comm) observeRecv(tr *obs.Tracer, env envelope, t0 float64) {
	enabled := tr.Enabled()
	if enabled {
		// Dur is the time this rank spent blocked waiting for the message.
		tr.Emit(obs.Event{Kind: obs.KindMPIRecv, Rank: c.me, T: t0,
			Dur: tr.Now() - t0, Peer: env.Src, Bytes: int64(len(env.Data))})
	}
	if cz := c.w.causal; cz != nil {
		lc := cz.OnRecv(c.me, env.LC)
		if enabled && env.LC != 0 {
			tr.Emit(obs.Event{Kind: obs.KindMsgRecv, Rank: c.me, T: tr.Now(),
				Peer: env.Src, Bytes: int64(len(env.Data)),
				LC: lc, Seq: env.Seq, PeerLC: env.LC})
		}
	}
}

// traceOp wraps one collective entry in a duration event when tracing is
// on; when off it costs one atomic pointer load plus one atomic bool
// load.
func (c *Comm) traceOp(kind obs.Kind, detail string, body func() error) error {
	tr := c.w.Tracer()
	if !tr.Enabled() {
		return body()
	}
	t0 := tr.Now()
	err := body()
	tr.Emit(obs.Event{Kind: kind, Rank: c.me, T: t0, Dur: tr.Now() - t0, Detail: detail})
	return err
}

// Barrier blocks until every member has entered it.
func (c *Comm) Barrier() error {
	c.checkMember()
	c.w.counters[c.me].barriers.Inc()
	return c.traceOp(obs.KindMPIBarrier, "barrier", c.barrier)
}

func (c *Comm) barrier() error {
	me := c.Rank()
	if me == 0 {
		for i := 1; i < c.Size(); i++ {
			if _, _, err := c.recv(AnySource, tagBarrierIn); err != nil {
				return err
			}
		}
		for i := 1; i < c.Size(); i++ {
			if err := c.send(i, tagBarrierOut, nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := c.send(0, tagBarrierIn, nil); err != nil {
		return err
	}
	_, _, err := c.recv(0, tagBarrierOut)
	return err
}

// Bcast broadcasts root's data to every member along a binomial tree and
// returns the received copy (root returns its own data).
func (c *Comm) Bcast(root int, data []byte) ([]byte, error) {
	c.checkMember()
	c.w.counters[c.me].bcasts.Inc()
	var out []byte
	err := c.traceOp(obs.KindMPICollective, "bcast", func() error {
		var err error
		out, err = c.bcast(root, data)
		return err
	})
	return out, err
}

func (c *Comm) bcast(root int, data []byte) ([]byte, error) {
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: bcast root %d of %d", root, n)
	}
	// Rotate ranks so the root is virtual rank 0.
	vrank := (c.Rank() - root + n) % n
	if vrank != 0 {
		// Receive from the exact binomial-tree parent (virtual rank
		// vrank - msb(vrank)); matching on the exact source keeps
		// back-to-back collectives from cross-matching.
		msb := 1
		for msb<<1 <= vrank {
			msb <<= 1
		}
		parent := (vrank - msb + root) % n
		got, _, err := c.recv(parent, tagBcast)
		if err != nil {
			return nil, err
		}
		data = got
	}
	// Binomial tree: in the round with distance `mask`, every virtual
	// rank below mask relays to vrank+mask. A rank starts relaying in
	// the first round after the one it received in (its msb) and keeps
	// relaying in every later round.
	for mask := 1; mask < n; mask <<= 1 {
		if vrank < mask && vrank+mask < n {
			dst := (vrank + mask + root) % n
			if err := c.send(dst, tagBcast, data); err != nil {
				return nil, err
			}
		}
	}
	return data, nil
}

// Gather collects each member's data at root; root receives a slice
// indexed by comm rank, others receive nil.
func (c *Comm) Gather(root int, data []byte) ([][]byte, error) {
	c.checkMember()
	c.w.counters[c.me].gathers.Inc()
	var out [][]byte
	err := c.traceOp(obs.KindMPICollective, "gather", func() error {
		var err error
		out, err = c.gather(root, data)
		return err
	})
	return out, err
}

func (c *Comm) gather(root int, data []byte) ([][]byte, error) {
	n := c.Size()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("mpi: gather root %d of %d", root, n)
	}
	if c.Rank() != root {
		return nil, c.send(root, tagGather, data)
	}
	out := make([][]byte, n)
	out[root] = append([]byte(nil), data...)
	// Receive from each member explicitly: per-pair FIFO then guarantees
	// that consecutive Gathers cannot cross-match.
	for i := 0; i < n; i++ {
		if i == root {
			continue
		}
		got, _, err := c.recv(i, tagGather)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}

// Announce is a one-hop exchange in which only some members speak: each
// member whose comm rank is listed in from sends data to every other
// member, and every member receives from each of them. It returns out,
// resized to len(from), with out[i] what comm rank from[i] sent; a
// speaker's own slot holds its data itself, not a copy. Every member must
// call it with the same from, which lists distinct members. A member not
// in from sends nothing, so k speakers among n members cost k·(n−1)
// messages, all in one hop. It counts as a gather.
func (c *Comm) Announce(from []int, data []byte, out [][]byte) ([][]byte, error) {
	c.checkMember()
	c.w.counters[c.me].gathers.Inc()
	err := c.traceOp(obs.KindMPICollective, "announce", func() error {
		var err error
		out, err = c.announce(from, data, out)
		return err
	})
	return out, err
}

func (c *Comm) announce(from []int, data []byte, out [][]byte) ([][]byte, error) {
	n, me := c.Size(), c.Rank()
	speaks := false
	for i, f := range from {
		if f < 0 || f >= n || slices.Contains(from[:i], f) {
			return nil, fmt.Errorf("mpi: announce from comm rank %d of %d, speakers %v", f, n, from)
		}
		speaks = speaks || f == me
	}
	if speaks {
		for to := 0; to < n; to++ {
			if to == me {
				continue
			}
			if err := c.send(to, tagAnnounce, data); err != nil {
				return nil, err
			}
		}
	}
	out = slices.Grow(out[:0], len(from))[:len(from)]
	// Receive from each speaker explicitly: per-pair FIFO then guarantees
	// that consecutive Announces cannot cross-match.
	for i, f := range from {
		if f == me {
			out[i] = data
			continue
		}
		got, _, err := c.recv(f, tagAnnounce)
		if err != nil {
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}

// ReduceOp combines two float64 values.
type ReduceOp func(a, b float64) float64

// Predefined reduce operations.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMin ReduceOp = math.Min
	OpMax ReduceOp = math.Max
)

// ReduceFloat64 reduces each member's x at root with op; root gets the
// result, others get 0.
func (c *Comm) ReduceFloat64(root int, op ReduceOp, x float64) (float64, error) {
	c.checkMember()
	c.w.counters[c.me].reduces.Inc()
	var out float64
	err := c.traceOp(obs.KindMPICollective, "reduce", func() error {
		var err error
		out, err = c.reduceFloat64(root, op, x)
		return err
	})
	return out, err
}

func (c *Comm) reduceFloat64(root int, op ReduceOp, x float64) (float64, error) {
	if c.Rank() != root {
		return 0, c.send(root, tagReduce, encodeFloat(x))
	}
	acc := x
	for i := 0; i < c.Size(); i++ {
		if i == root {
			continue
		}
		got, _, err := c.recv(i, tagReduce)
		if err != nil {
			return 0, err
		}
		acc = op(acc, decodeFloat(got))
	}
	return acc, nil
}

// AllReduceFloat64 reduces x across all members and distributes the
// result to everyone.
func (c *Comm) AllReduceFloat64(op ReduceOp, x float64) (float64, error) {
	v, err := c.ReduceFloat64(0, op, x)
	if err != nil {
		return 0, err
	}
	out, err := c.Bcast(0, encodeFloat(v))
	if err != nil {
		return 0, err
	}
	return decodeFloat(out), nil
}

// AllGatherFloat64 gathers one float from each member and distributes the
// full comm-rank-indexed vector to everyone.
func (c *Comm) AllGatherFloat64(x float64) ([]float64, error) {
	parts, err := c.Gather(0, encodeFloat(x))
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.Rank() == 0 {
		packed = make([]byte, 0, 8*len(parts))
		for _, p := range parts {
			packed = append(packed, p...)
		}
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(packed)/8)
	for i := range out {
		out[i] = decodeFloat(packed[i*8 : i*8+8])
	}
	return out, nil
}

// Split partitions the communicator like MPI_Comm_split: members with the
// same color form a new communicator, ordered by (key, old rank). Every
// member must call Split; each receives its own new communicator.
func (c *Comm) Split(color, key int) (*Comm, error) {
	c.checkMember()
	// Allgather (color, key) pairs via gather+bcast with packed encoding.
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf[0:8], uint64(int64(color)))
	binary.BigEndian.PutUint64(buf[8:16], uint64(int64(key)))
	parts, err := c.Gather(0, buf)
	if err != nil {
		return nil, err
	}
	var packed []byte
	if c.Rank() == 0 {
		for _, p := range parts {
			packed = append(packed, p...)
		}
	}
	packed, err = c.Bcast(0, packed)
	if err != nil {
		return nil, err
	}
	type entry struct{ color, key, rank int }
	var mine []entry
	for i := 0; i < len(packed)/16; i++ {
		col := int(int64(binary.BigEndian.Uint64(packed[i*16 : i*16+8])))
		k := int(int64(binary.BigEndian.Uint64(packed[i*16+8 : i*16+16])))
		if col == color {
			mine = append(mine, entry{col, k, i})
		}
	}
	sort.Slice(mine, func(a, b int) bool {
		if mine[a].key != mine[b].key {
			return mine[a].key < mine[b].key
		}
		return mine[a].rank < mine[b].rank
	})
	members := make([]int, len(mine))
	for i, e := range mine {
		members[i] = c.members[e.rank]
	}
	// Split is collective, so every member derives the same ID.
	id := deriveCommID(c.id, uint64(color), members)
	// Synchronize before returning: a member must not use the parent
	// communicator again until all have extracted their split data.
	return &Comm{w: c.w, me: c.me, id: id, members: members}, nil
}

// CommOf constructs a communicator from an explicit member list (world
// ranks, in comm-rank order) and an epoch number, without any message
// exchange. Every member must construct it with identical arguments; the
// runtime uses this to rebuild its private active communicator after a
// swap without waking parked spares.
func (r *Rank) CommOf(members []int, epoch uint64) *Comm {
	if len(members) == 0 {
		panic("mpi: CommOf with no members")
	}
	for i, m := range members {
		if m < 0 || m >= r.w.size {
			panic(fmt.Sprintf("mpi: CommOf member %d out of range", m))
		}
		if slices.Contains(members[:i], m) {
			panic(fmt.Sprintf("mpi: CommOf duplicate member %d", m))
		}
	}
	id := deriveCommID(worldCommID+1, epoch, members)
	return &Comm{w: r.w, me: r.rank, id: id, members: append([]int(nil), members...)}
}

// deriveCommID is the 64-bit FNV-1a hash of parent, salt and members,
// each as a big-endian 8-byte word, with the world's ID moved to 1. IDs
// travel on the wire, so every rank must derive them bit for bit alike.
func deriveCommID(parent, salt uint64, members []int) uint64 {
	id := fnvWord(fnvWord(fnvOffset64, parent), salt)
	for _, m := range members {
		id = fnvWord(id, uint64(m))
	}
	if id == worldCommID {
		id = 1
	}
	return id
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds v's eight bytes, most significant first, into the FNV-1a
// hash h.
func fnvWord(h, v uint64) uint64 {
	for shift := 56; shift >= 0; shift -= 8 {
		h ^= v >> shift & 0xff
		h *= fnvPrime64
	}
	return h
}

func encodeFloat(x float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], math.Float64bits(x))
	return b[:]
}

func decodeFloat(b []byte) float64 {
	return math.Float64frombits(binary.BigEndian.Uint64(b))
}
