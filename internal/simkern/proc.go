package simkern

import "fmt"

// Proc is a simulated process: a goroutine that runs in lockstep with the
// kernel, for models written as one sequential body per process (one per
// MPI rank, say). Inside the process body, Sleep and Park block in
// virtual time without blocking the kernel; each costs an event plus two
// goroutine hand-offs, which is why hot paths are written as event chains
// instead. Proc methods must only be called from the process's own
// goroutine, except Unpark, which is called by whoever wakes the process
// (an event callback or another process). A panic in the body kills the
// program: nothing on the kernel's goroutine can recover it.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	parked bool
}

// Go starts a simulated process at the current virtual time. The function
// fn runs on its own goroutine but only while the kernel is dispatching
// it, so fn may freely touch simulation state. A kernel that never starts
// a process never builds the hand-off machinery.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	if k.yield == nil {
		k.yield, k.parked = make(chan struct{}), make(map[*Proc]struct{})
	}
	p := &Proc{k: k, name: name, resume: make(chan struct{})}
	k.At(k.now, func() {
		go func() {
			defer func() { k.yield <- struct{}{} }()
			fn(p)
		}()
		<-k.yield
	})
	return p
}

// Name reports the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() float64 { return p.k.now }

// Sleep blocks the process for d virtual seconds. Negative d panics.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("simkern: %s: Sleep(%g)", p.name, d))
	}
	p.k.schedule(p.k.now+d, nil, p)
	p.block()
}

// SleepUntil blocks the process until virtual time t (a no-op if t is not
// in the future).
func (p *Proc) SleepUntil(t float64) {
	if t <= p.k.now {
		return
	}
	p.Sleep(t - p.k.now)
}

// Park blocks the process until some other component calls Unpark.
func (p *Proc) Park() {
	p.parked = true
	p.k.parked[p] = struct{}{}
	p.block()
}

// Unpark wakes a parked process at the current virtual time. It panics if
// the process is not parked: waking a running process is always a bug in
// the simulated system.
func (p *Proc) Unpark() {
	if !p.parked {
		panic(fmt.Sprintf("simkern: Unpark of non-parked process %q", p.name))
	}
	p.parked = false
	delete(p.k.parked, p)
	p.k.schedule(p.k.now, nil, p)
}

// Parked reports whether the process is currently parked.
func (p *Proc) Parked() bool { return p.parked }

// block yields control to the kernel and waits to be dispatched again.
func (p *Proc) block() {
	p.k.yield <- struct{}{}
	<-p.resume
}

// dispatch hands control to the process goroutine and waits for it to
// block or finish. Must run on the kernel goroutine (inside an event).
func (p *Proc) dispatch() {
	p.resume <- struct{}{}
	<-p.k.yield
}

// Barrier synchronizes n processes: each calls Wait, and all are released
// when the n-th arrives. A Barrier is reusable (it resets after each
// release), matching MPI_Barrier semantics for a fixed group.
type Barrier struct {
	k       *Kernel
	n       int
	waiting []*Proc
}

// NewBarrier creates a barrier for n processes. n must be positive.
func NewBarrier(k *Kernel, n int) *Barrier {
	if n <= 0 {
		panic(fmt.Sprintf("simkern: NewBarrier(%d)", n))
	}
	return &Barrier{k: k, n: n}
}

// Wait blocks p until n processes have arrived at the barrier.
func (b *Barrier) Wait(p *Proc) {
	if len(b.waiting) == b.n-1 {
		// Last arrival: release everyone, do not block.
		ws := b.waiting
		b.waiting = nil
		for _, w := range ws {
			w.Unpark()
		}
		return
	}
	b.waiting = append(b.waiting, p)
	p.Park()
}

// Resize changes the party count for subsequent rounds. It panics if
// processes are currently waiting (resizing mid-round would deadlock) or
// if n is not positive.
func (b *Barrier) Resize(n int) {
	if len(b.waiting) != 0 {
		panic("simkern: Barrier.Resize with waiters present")
	}
	if n <= 0 {
		panic(fmt.Sprintf("simkern: Barrier.Resize(%d)", n))
	}
	b.n = n
}
