package mpi

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obs"
)

// rankCounters is one rank's live counter set. The counters are handles
// into the world's obs.Registry — updates are single atomic adds, so the
// rank's own goroutines (and, for sends, any goroutine the application
// spawns) can update them without a lock on the hot path, while the
// registry makes the same values visible to snapshots and /metrics.
type rankCounters struct {
	msgsSent  *obs.Counter
	bytesSent *obs.Counter
	msgsRecv  *obs.Counter
	bytesRecv *obs.Counter
	barriers  *obs.Counter
	bcasts    *obs.Counter
	gathers   *obs.Counter
	reduces   *obs.Counter
	sendBlock *obs.Counter // nanoseconds inside transport sends, the socket write a sender makes included
}

// newRankCounters registers rank's counters in reg under
// "mpi.rank<r>.<counter>" and returns the handle set.
func newRankCounters(reg *obs.Registry, rank int) *rankCounters {
	name := func(c string) string { return fmt.Sprintf("mpi.rank%d.%s", rank, c) }
	return &rankCounters{
		msgsSent:  reg.Counter(name("msgs_sent")),
		bytesSent: reg.Counter(name("bytes_sent")),
		msgsRecv:  reg.Counter(name("msgs_recv")),
		bytesRecv: reg.Counter(name("bytes_recv")),
		barriers:  reg.Counter(name("barriers")),
		bcasts:    reg.Counter(name("bcasts")),
		gathers:   reg.Counter(name("gathers")),
		reduces:   reg.Counter(name("reduces")),
		sendBlock: reg.Counter(name("send_block_ns")),
	}
}

func (c *rankCounters) snapshot() RankStats {
	return RankStats{
		MsgsSent:  c.msgsSent.Load(),
		BytesSent: c.bytesSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
		BytesRecv: c.bytesRecv.Load(),
		Barriers:  c.barriers.Load(),
		Bcasts:    c.bcasts.Load(),
		Gathers:   c.gathers.Load(),
		Reduces:   c.reduces.Load(),
		SendBlock: time.Duration(c.sendBlock.Load()),
	}
}

// RankStats is a snapshot of one rank's communication counters. Message
// and byte counts include the internal traffic of collectives (each
// collective is built from point-to-point sends); the collective
// counters record how many times this rank *entered* each collective
// (an allreduce counts as one reduce plus one bcast).
type RankStats struct {
	MsgsSent  uint64
	BytesSent uint64
	MsgsRecv  uint64
	BytesRecv uint64
	Barriers  uint64
	Bcasts    uint64
	Gathers   uint64
	Reduces   uint64
	// SendBlock is the total time this rank's sends spent inside the
	// transport. For TCP that is lock wait, encode and — on an idle
	// connection, where the sender writes the socket itself — the socket
	// write, which "mpi.tcp.send_latency_s" times on its own whoever
	// makes it; only a frame queued behind a write in flight leaves its
	// write to the flusher. Mailbox push for the in-process transport.
	SendBlock time.Duration
}

// add accumulates o into s.
func (s *RankStats) add(o RankStats) {
	s.MsgsSent += o.MsgsSent
	s.BytesSent += o.BytesSent
	s.MsgsRecv += o.MsgsRecv
	s.BytesRecv += o.BytesRecv
	s.Barriers += o.Barriers
	s.Bcasts += o.Bcasts
	s.Gathers += o.Gathers
	s.Reduces += o.Reduces
	s.SendBlock += o.SendBlock
}

// WorldStats is a point-in-time snapshot of every rank's counters,
// indexed by world rank.
type WorldStats struct {
	PerRank []RankStats
}

// Total sums the per-rank counters.
func (ws WorldStats) Total() RankStats {
	var t RankStats
	for _, r := range ws.PerRank {
		t.add(r)
	}
	return t
}

// String renders a compact per-rank table followed by the totals row.
func (ws WorldStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %12s %10s %12s %8s %6s %6s %6s %12s\n",
		"rank", "sent", "sentB", "recv", "recvB", "barrier", "bcast", "gather", "reduce", "sendblock")
	row := func(name string, r RankStats) {
		fmt.Fprintf(&b, "%-6s %10d %12d %10d %12d %8d %6d %6d %6d %12s\n",
			name, r.MsgsSent, r.BytesSent, r.MsgsRecv, r.BytesRecv,
			r.Barriers, r.Bcasts, r.Gathers, r.Reduces, r.SendBlock.Round(time.Microsecond))
	}
	for i, r := range ws.PerRank {
		row(fmt.Sprintf("%d", i), r)
	}
	row("total", ws.Total())
	return b.String()
}

// Stats snapshots the communication counters of every rank — a typed view
// over the world's metrics registry. It is safe to call at any time,
// including while Run is in progress and after the world has closed.
func (w *World) Stats() WorldStats {
	ws := WorldStats{PerRank: make([]RankStats, w.size)}
	for i, c := range w.counters {
		ws.PerRank[i] = c.snapshot()
	}
	return ws
}
