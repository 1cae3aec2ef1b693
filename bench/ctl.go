package main

// Control kernels: fixed stdlib-only work whose speed tracks the host's
// speed of the moment. The harness interleaves slices of a workload's
// control with the workload's ops and divides the round's timings by
// the control's slowdown, so common-mode host drift cancels.
//
// FROZEN: this file (kernels and their nominal times) and the op counts
// in workloads.go are the ruler every later PR is measured with. The
// kernels import nothing from repro/internal and are never re-tuned.

import (
	"bytes"
	"container/heap"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
)

// control is one kernel instance, owned by one round.
type control interface {
	// unit runs one fixed unit of work.
	unit() error
	close()
}

// ctlSpec names a kernel and how many units make one interleaved slice
// (sized so a slice is roughly 3–8 ms on the baseline host).
//
// nominalNS is the unit's wall time on the builder's baseline host: a
// round's timings are multiplied by nominalNS / measured, so normalised
// values read as ordinary microseconds on a typical day.
type ctlSpec struct {
	name       string
	sliceUnits int
	nominalNS  float64
	make       func(seed int64) (control, error)
}

var controls = map[string]ctlSpec{
	"ctl_rtt":  {"ctl_rtt", 16, 0.23e6, newCtlRTT},
	"ctl_gob":  {"ctl_gob", 1, 6.7e6, newCtlGob},
	"ctl_heap": {"ctl_heap", 1, 4.5e6, newCtlHeap},
}

// ctlRTT: 20 × 64-byte ping-pong over a raw loopback TCP connection to
// an echo goroutine — the matched control for latency-bound workloads
// (syscalls, scheduler wake-ups, loopback stack).
type ctlRTT struct {
	ln   net.Listener
	conn net.Conn
	done chan struct{}
	buf  [64]byte
}

const ctlRTTPings = 20

func newCtlRTT(seed int64) (control, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("ctl_rtt listen: %w", err)
	}
	c := &ctlRTT{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		peer, err := ln.Accept()
		if err != nil {
			return
		}
		defer peer.Close()
		var b [64]byte
		for {
			if _, err := io.ReadFull(peer, b[:]); err != nil {
				return
			}
			if _, err := peer.Write(b[:]); err != nil {
				return
			}
		}
	}()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-c.done
		return nil, fmt.Errorf("ctl_rtt dial: %w", err)
	}
	rand.New(rand.NewSource(seed)).Read(c.buf[:])
	return c, nil
}

func (c *ctlRTT) unit() error {
	for i := 0; i < ctlRTTPings; i++ {
		if _, err := c.conn.Write(c.buf[:]); err != nil {
			return fmt.Errorf("ctl_rtt write: %w", err)
		}
		if _, err := io.ReadFull(c.conn, c.buf[:]); err != nil {
			return fmt.Errorf("ctl_rtt read: %w", err)
		}
	}
	return nil
}

func (c *ctlRTT) close() {
	c.conn.Close()
	c.ln.Close()
	<-c.done
}

// ctlGob: stdlib gob encode of a seeded 1 MiB []float64 into a
// bytes.Buffer, a copy of the bytes, and a decode — the matched control
// for codec- and memory-bound workloads (reflection walk, memmove,
// allocator, GC pressure).
type ctlGob struct {
	data []float64
	out  []float64
}

func newCtlGob(seed int64) (control, error) {
	r := rand.New(rand.NewSource(seed))
	c := &ctlGob{data: make([]float64, (1<<20)/8)}
	for i := range c.data {
		// Full-mantissa values: gob trims trailing zero bytes.
		c.data[i] = math.Float64frombits(0x3FF0000000000000 | uint64(r.Int63())>>11 | 1)
	}
	return c, nil
}

func (c *ctlGob) unit() error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c.data); err != nil {
		return fmt.Errorf("ctl_gob encode: %w", err)
	}
	cp := make([]byte, buf.Len())
	copy(cp, buf.Bytes())
	c.out = c.out[:0]
	if err := gob.NewDecoder(bytes.NewReader(cp)).Decode(&c.out); err != nil {
		return fmt.Errorf("ctl_gob decode: %w", err)
	}
	if len(c.out) != len(c.data) || c.out[len(c.out)-1] != c.data[len(c.data)-1] {
		return fmt.Errorf("ctl_gob: round trip mismatch")
	}
	return nil
}

func (c *ctlGob) close() {}

// ctlHeap: 20 000 pop/push cycles of heap-allocated events through
// container/heap, each new event's time advanced by a sum of
// exponential variates — the matched control for the discrete-event
// simulator (pointer chasing, interface calls, small allocations, and
// the load-trace arithmetic in about the simulator's proportion). Like
// the simulator's sweep it runs on GOMAXPROCS workers that pull chunks
// of cycles from a shared counter, so a host that slows one CPU slows
// the control the way it slows the sweep.
type ctlHeap struct {
	workers []*ctlHeapWorker
}

type ctlHeapWorker struct {
	h   ctlEventHeap
	rng *rand.Rand
}

type ctlEvent struct {
	t  float64
	fn func()
}

type ctlEventHeap []*ctlEvent

func (h ctlEventHeap) Len() int           { return len(h) }
func (h ctlEventHeap) Less(i, j int) bool { return h[i].t < h[j].t }
func (h ctlEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ctlEventHeap) Push(x any)        { *h = append(*h, x.(*ctlEvent)) }
func (h *ctlEventHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

const (
	ctlHeapCycles = 20000
	ctlHeapChunk  = 500
	ctlHeapDepth  = 1024
)

// ctlHeapVariates is how many exponential variates make one event's
// time step. It sets the kernel's arithmetic share: with none the
// kernel is twice as sensitive to the host's speed as the simulator,
// with only arithmetic two thirds as sensitive (README, noise study).
const ctlHeapVariates = 8

func newCtlHeap(seed int64) (control, error) {
	c := &ctlHeap{}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		hw := &ctlHeapWorker{rng: rand.New(rand.NewSource(seed + int64(w)))}
		for i := 0; i < ctlHeapDepth; i++ {
			heap.Push(&hw.h, &ctlEvent{t: hw.rng.Float64()})
		}
		c.workers = append(c.workers, hw)
	}
	return c, nil
}

func (w *ctlHeapWorker) cycles(n int) {
	for i := 0; i < n; i++ {
		ev := heap.Pop(&w.h).(*ctlEvent)
		dt := 0.0
		for j := 0; j < ctlHeapVariates; j++ {
			dt -= math.Log(1 - w.rng.Float64())
		}
		heap.Push(&w.h, &ctlEvent{t: ev.t + dt, fn: ev.fn})
	}
}

func (c *ctlHeap) unit() error {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, w := range c.workers {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= ctlHeapCycles/ctlHeapChunk {
				w.cycles(ctlHeapChunk)
			}
		}()
	}
	wg.Wait()
	for _, w := range c.workers {
		if w.h.Len() != ctlHeapDepth {
			return fmt.Errorf("ctl_heap: depth %d", w.h.Len())
		}
	}
	return nil
}

func (c *ctlHeap) close() {}
