package clock

import "time"

// Scaled is a clock whose timeline runs Factor times faster than the
// wall clock: a Sleep(1s) on a Scaled clock with Factor 25 blocks for
// 40ms of real time, and Now advances 25 virtual seconds per real
// second. Unlike a virtual Fake it follows the wall, so it accelerates
// live runs whose goroutines wait on what no clock sees (real sockets,
// another process) — the `swaprun -accel` mode.
//
// The zero value is invalid; use NewScaled.
type Scaled struct {
	factor float64
	start  time.Time // wall instant the scaled timeline was anchored
	origin time.Time // virtual instant corresponding to start
}

// NewScaled returns a clock running factor× faster than the wall clock.
// factor <= 0 selects 1 (real time).
func NewScaled(factor float64) *Scaled {
	if factor <= 0 {
		factor = 1
	}
	//swapvet:ignore clockdiscipline -- anchors the virtual timeline to the wall clock
	now := time.Now()
	return &Scaled{factor: factor, start: now, origin: now}
}

// Factor reports the acceleration factor.
func (s *Scaled) Factor() float64 { return s.factor }

// RealDuration translates a duration on the scaled timeline into the
// wall-clock duration it occupies (d / factor). Used by RealDeadline to
// arm socket deadlines that match virtual timeouts.
func (s *Scaled) RealDuration(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	scaled := time.Duration(float64(d) / s.factor)
	if scaled <= 0 {
		scaled = 1
	}
	return scaled
}

func (s *Scaled) virtualDuration(real time.Duration) time.Duration {
	return time.Duration(float64(real) * s.factor)
}

func (s *Scaled) Now() time.Time {
	//swapvet:ignore clockdiscipline -- maps wall time onto the scaled timeline
	real := time.Since(s.start)
	return s.origin.Add(s.virtualDuration(real))
}

func (s *Scaled) Since(t time.Time) time.Duration { return s.Now().Sub(t) }
func (s *Scaled) Until(t time.Time) time.Duration { return t.Sub(s.Now()) }

func (s *Scaled) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	//swapvet:ignore clockdiscipline -- compressed wall sleep implements the scaled timeline
	time.Sleep(s.RealDuration(d))
}

func (s *Scaled) AfterFunc(d time.Duration, f func()) *Timer {
	//swapvet:ignore clockdiscipline -- compressed wall timer implements the scaled timeline
	return &Timer{stop: time.AfterFunc(s.RealDuration(d), f).Stop}
}
