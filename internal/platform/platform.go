package platform

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/simkern"
)

// Config describes a platform to build. Zero fields take the paper's
// defaults (see Default).
type Config struct {
	NumHosts  int
	SpeedMin  float64 // flop/s
	SpeedMax  float64 // flop/s
	Latency   float64 // seconds
	Bandwidth float64 // bytes/s
	LoadModel loadgen.Model

	// MPIStartupPerProc is the per-process application launch cost; the
	// paper measured 3/4 s per process and notes that over-allocating 30
	// processors adds ~20 s to startup.
	MPIStartupPerProc float64
}

// Default returns the paper's platform parameters: workstations in the
// hundreds-of-MFlop/s range on a shared 6 MB/s low-latency LAN.
func Default(numHosts int, load loadgen.Model) Config {
	return Config{
		NumHosts:          numHosts,
		SpeedMin:          200e6,
		SpeedMax:          800e6,
		Latency:           0.0005,
		Bandwidth:         6e6,
		LoadModel:         load,
		MPIStartupPerProc: 0.75,
	}
}

// Environment is what a run is measured against: the hosts, each with its
// peak speed and its load trace. It is a function of (hosts, load model,
// seed) alone and holds no kernel, so every technique or policy compared
// on one seed can run over the same Environment, one after another: a
// load trace answers from its source's segment sequence however far an
// earlier run extended it (see loadgen.Trace), so each run sees exactly
// what it would over an environment built only for it. Not safe for
// concurrent use.
type Environment struct {
	Cfg    Config
	hosts  []*Host
	speeds *rng.Stream
}

// NewEnvironment draws host speeds uniformly from [SpeedMin, SpeedMax]
// and gives each host an independent load source, all deterministically
// derived from src. It is Rebuild on a zero Environment.
func NewEnvironment(cfg Config, src *rng.Source) *Environment {
	e := new(Environment)
	e.Rebuild(cfg, src)
	return e
}

// Rebuild remakes e in place as the environment NewEnvironment(cfg, src)
// builds. It keeps the hosts, their traces' segment buffers, and the
// random streams and load sources that restart in place, so a worker
// that measures cell after cell pays for one set. Every Platform bound
// from e before is invalid afterwards.
func (e *Environment) Rebuild(cfg Config, src *rng.Source) {
	if cfg.NumHosts <= 0 {
		panic(fmt.Sprintf("platform: NumHosts %d", cfg.NumHosts))
	}
	if cfg.SpeedMax < cfg.SpeedMin || cfg.SpeedMin <= 0 {
		panic(fmt.Sprintf("platform: speed range [%g, %g]", cfg.SpeedMin, cfg.SpeedMax))
	}
	if cfg.LoadModel == nil {
		cfg.LoadModel = loadgen.Constant{N: 0}
	}
	e.Cfg = cfg
	if e.speeds == nil {
		e.speeds = new(rng.Stream)
	}
	src.Reseed(e.speeds, "host-speeds")
	// Hosts past NumHosts stay in the slice's capacity for a later,
	// larger cell.
	if n := cfg.NumHosts; n <= cap(e.hosts) {
		e.hosts = e.hosts[:n]
	} else {
		e.hosts = append(e.hosts[:cap(e.hosts)], make([]*Host, n-cap(e.hosts))...)
	}
	for i, h := range e.hosts {
		if h == nil {
			h = &Host{ID: i, load: new(loadgen.Trace)}
			e.hosts[i] = h
		}
		h.Speed = e.speeds.Uniform(cfg.SpeedMin, cfg.SpeedMax)
		h.load.Reload(cfg.LoadModel, src, i)
	}
}

// Hosts reports the environment's hosts, host i at index i.
func (e *Environment) Hosts() []*Host { return e.hosts[:len(e.hosts):len(e.hosts)] }

// Bind attaches the environment to a kernel for one run: the hosts are
// the environment's own, the link is new and idle.
func (e *Environment) Bind(k *simkern.Kernel) *Platform {
	return &Platform{
		Kernel: k,
		Hosts:  e.Hosts(),
		Link:   NewLink(k, e.Cfg.Latency, e.Cfg.Bandwidth),
		Cfg:    e.Cfg,
	}
}

// Platform is an environment bound to a kernel for one run: the hosts
// with their load traces, and the shared link.
type Platform struct {
	Kernel *simkern.Kernel
	Hosts  []*Host
	Link   *Link
	Cfg    Config
}

// New builds an environment from src and binds it to k.
func New(k *simkern.Kernel, cfg Config, src *rng.Source) *Platform {
	return NewEnvironment(cfg, src).Bind(k)
}

// FastestAt returns the indices of the n hosts with the highest effective
// rate at time t, fastest first, drawn from the candidate set (nil means
// all hosts). Ties break by host ID for determinism. This is the paper's
// pre-execution scheduler: "the initial schedule always uses the fastest
// performing processors at the time of application startup".
func (p *Platform) FastestAt(t float64, n int, candidates []int) []int {
	// One trace lookup per candidate, not one per comparison.
	type rated struct {
		id   int
		rate float64
	}
	var byRate []rated
	if candidates == nil {
		byRate = make([]rated, len(p.Hosts))
		for i, h := range p.Hosts {
			byRate[i] = rated{i, h.RateAt(t)}
		}
	} else {
		byRate = make([]rated, len(candidates))
		for i, id := range candidates {
			byRate[i] = rated{id, p.Hosts[id].RateAt(t)}
		}
	}
	if n > len(byRate) {
		panic(fmt.Sprintf("platform: want %d of %d candidates", n, len(byRate)))
	}
	slices.SortFunc(byRate, func(a, b rated) int {
		if a.rate != b.rate {
			return cmp.Compare(b.rate, a.rate)
		}
		return cmp.Compare(a.id, b.id)
	})
	fastest := make([]int, n)
	for i := range fastest {
		fastest[i] = byRate[i].id
	}
	return fastest
}

// StartupTime reports the MPI launch cost for the given number of
// processes.
func (p *Platform) StartupTime(procs int) float64 {
	return p.Cfg.MPIStartupPerProc * float64(procs)
}
