// Package platform models the execution environment of the paper: a
// heterogeneous network of time-shared workstations (hundreds of MFlop/s)
// connected by a single shared 100baseT-class link (6 MB/s) with
// latency, on which concurrent transfers fair-share the bandwidth
// (a SimGrid-style fluid model).
package platform

import (
	"fmt"
	"math"

	"repro/internal/loadgen"
)

// Host is one simulated workstation. Its peak speed is fixed; the rate our
// process observes varies over time with external load: with n competing
// compute-bound processes the host delivers Speed/(1+n) (fair CPU
// time-sharing, the model used by the paper's SimGrid simulator).
type Host struct {
	ID    int
	Speed float64 // peak flop/s
	load  *loadgen.Trace
}

// NewHost builds a host with the given peak speed and load trace.
func NewHost(id int, speed float64, load *loadgen.Trace) *Host {
	if speed <= 0 {
		panic(fmt.Sprintf("platform: host %d speed %g", id, speed))
	}
	return &Host{ID: id, Speed: speed, load: load}
}

// LoadAt reports the number of competing processes at time t.
func (h *Host) LoadAt(t float64) int { return h.load.ValueAt(t) }

// AvailAt reports the instantaneous CPU fraction our process would get at
// time t: 1/(1+n(t)).
func (h *Host) AvailAt(t float64) float64 { return 1 / (1 + float64(h.load.ValueAt(t))) }

// RateAt reports the instantaneous effective rate (flop/s) at time t.
func (h *Host) RateAt(t float64) float64 { return h.Speed * h.AvailAt(t) }

// MeanAvail reports the average availability over [t0, t1]; for t0 == t1
// it is the instantaneous availability.
func (h *Host) MeanAvail(t0, t1 float64) float64 { return h.load.MeanAvail(t0, t1) }

// MeanRate reports the average effective rate over [t0, t1].
func (h *Host) MeanRate(t0, t1 float64) float64 { return h.Speed * h.load.MeanAvail(t0, t1) }

// ComputeFinish reports the virtual time at which a task of the given
// flops, started at time start, completes on this host under its
// time-varying load. It walks the host's load trace segment by segment.
func (h *Host) ComputeFinish(start, flops float64) float64 {
	if flops < 0 || math.IsNaN(flops) {
		panic(fmt.Sprintf("platform: ComputeFinish flops %g", flops))
	}
	if flops == 0 {
		return start
	}
	t := start
	remaining := flops
	for {
		rate := h.Speed / (1 + float64(h.load.ValueAt(t)))
		segEnd := h.load.NextChange(t)
		span := segEnd - t
		if remaining <= rate*span {
			return t + remaining/rate
		}
		remaining -= rate * span
		t = segEnd
	}
}

// ComputeDuration reports how long the given flops take starting at start.
func (h *Host) ComputeDuration(start, flops float64) float64 {
	return h.ComputeFinish(start, flops) - start
}

// String implements fmt.Stringer.
func (h *Host) String() string {
	return fmt.Sprintf("host-%d(%.0f MFlop/s)", h.ID, h.Speed/1e6)
}
