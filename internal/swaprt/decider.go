package swaprt

import (
	"time"

	"repro/internal/mpi"
)

// Decider is the one interface between the runtime and the swap manager
// — the paper's "swap manager responsible for collecting information and
// making swapping decisions" — and between every layer wrapped around it
// (DESIGN.md §13, "Decision pipeline"): Decide answers one swap point,
// Report folds in a swap handler's measurement taken between swap
// points, ReportOutcome closes the epoch a decision proposed, Ping asks
// whether the service is reachable. One leader calls Decide and
// ReportOutcome in sequence; Report and Ping arrive concurrently. A
// request's slices are the caller's, reused for its next decision: a
// Decider reads them until it returns and keeps a copy of what it needs
// longer.
//
// A wrapper embeds Forward, a leaf embeds StayDecider, and each
// overrides what it adds: all four calls always have somewhere to go, so
// a layer cannot lose one by omission.
type Decider interface {
	Decide(req DecideRequest) (DecideResponse, error)
	Report(r ReportMsg) error
	OutcomeReporter
	Ping() error
}

// OutcomeReporter is the outcome-report piece of Decider.
type OutcomeReporter interface {
	ReportOutcome(o OutcomeMsg) error
}

// Forward is the embeddable base of every wrapping decider: each of
// Decider's methods passes straight through to Next.
type Forward struct{ Next Decider }

func (f Forward) Decide(req DecideRequest) (DecideResponse, error) { return f.Next.Decide(req) }
func (f Forward) Report(r ReportMsg) error                         { return f.Next.Report(r) }
func (f Forward) ReportOutcome(o OutcomeMsg) error                 { return f.Next.ReportOutcome(o) }
func (f Forward) Ping() error                                      { return f.Next.Ping() }

// StayDecider answers every decision with "no swaps", accepts and drops
// every report, and is always alive. It is the static degraded-mode
// fallback — swapping is an optimization, so when no better decision
// service is available the correct conservative answer is to keep the
// current placement — and the embeddable base that gives a leaf decider
// its no-op defaults.
type StayDecider struct{}

func (StayDecider) Decide(DecideRequest) (DecideResponse, error) { return DecideResponse{}, nil }
func (StayDecider) Report(ReportMsg) error                       { return nil }
func (StayDecider) ReportOutcome(OutcomeMsg) error               { return nil }
func (StayDecider) Ping() error                                  { return nil }

// GatedDecider routes Decide and Ping through Gate before forwarding,
// so a chaos plan (fault.Plan.ManagerCall) can take the decision service
// down and bring it back on a deterministic call counter. Report and
// ReportOutcome are Forward's: the outage window is keyed on
// decision/probe calls only, keeping replay independent of handler tick
// timing (and a killed manager fails report sends for real anyway).
type GatedDecider struct {
	Forward
	Gate func() error
}

// Decide implements Decider.
func (g GatedDecider) Decide(req DecideRequest) (DecideResponse, error) {
	if err := g.Gate(); err != nil {
		return DecideResponse{}, err
	}
	return g.Next.Decide(req)
}

// Ping implements Decider: the gate is the simulated outage.
func (g GatedDecider) Ping() error {
	if err := g.Gate(); err != nil {
		return err
	}
	return g.Next.Ping()
}

// NewDecisionStack assembles the stack the harnesses put in front of a
// manager that can fail: a ResilientDecider falling back to a
// LocalDecider around cfg.Policy, over primary, behind gate when gate is
// non-nil. With sup set the primary is the supervised manager instead:
// an open circuit re-resolves the leader from the lease (a restart
// serves at a new address) and circuit transitions go to the manager's
// WAL. With neither, a second LocalDecider stands in, so a chaos plan
// has something to take down. Clock and metrics registry are world's,
// the tracer is cfg's; the caller owns Close.
func NewDecisionStack(world *mpi.World, cfg Config, primary Decider, sup *ManagerSupervisor,
	gate func() error) *ResilientDecider {

	cfg = cfg.fill()
	gated := func(d Decider) Decider {
		if gate == nil {
			return d
		}
		return GatedDecider{Forward: Forward{Next: d}, Gate: gate}
	}
	d := &ResilientDecider{
		Fallback:      cfg.localDecider(),
		MaxAttempts:   2,
		FailThreshold: 2,
		ProbeInterval: 50 * time.Millisecond,
		Clock:         world.Clock(),
		Tracer:        cfg.Tracer,
		Metrics:       world.Metrics(),
	}
	if sup != nil {
		primary = sup.remote(sup.Addr())
		d.Resolver = func() (Decider, error) {
			next, err := sup.Resolve()
			if err != nil {
				return nil, err
			}
			return gated(next), nil
		}
		d.OnCircuit = sup.RecordCircuit
	} else if primary == nil {
		primary = cfg.localDecider()
	}
	d.Primary = gated(primary)
	return d
}
