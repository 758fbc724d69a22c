// Package ft is the resilience subsystem: deterministic fault
// injection, supervised restart and shrink recovery, and
// checkpoint-policy math (Young/Daly optimal intervals).
//
// Faults are data, not randomness at run time: a Plan is a list of
// fault records — node crashes, transient link-degradation windows,
// straggler PEs — compiled once (possibly from a seeded MTBF process)
// and then armed onto a world. Runs stay pure functions of their
// inputs, so a run with faults is exactly as reproducible as one
// without, and sweeps over fault scenarios parallelize byte-identically
// (the determinism contract in DESIGN.md §9).
package ft

import (
	"fmt"
	"math"

	"provirt/internal/ampi"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/ult"
)

// FaultKind classifies an injected fault.
type FaultKind int

const (
	// Crash is a hard fail-stop node failure at a point in time.
	Crash FaultKind = iota
	// LinkDegrade multiplies network transfer times by Factor for
	// transfers departing inside [At, Until).
	LinkDegrade
	// Straggler dilates one PE's compute by Factor inside [At, Until)
	// (thermal throttling, a noisy neighbor, a failing DIMM).
	Straggler
)

// String names the kind ("crash", "link-degrade", "straggler").
func (k FaultKind) String() string {
	switch k {
	case Crash:
		return "crash"
	case LinkDegrade:
		return "link-degrade"
	case Straggler:
		return "straggler"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one injected fault.
type Fault struct {
	Kind FaultKind
	// At is when the fault strikes (Crash) or the window opens
	// (LinkDegrade, Straggler).
	At sim.Time
	// Until closes the window for LinkDegrade and Straggler.
	Until sim.Time
	// Node is the crash target.
	Node int
	// PE is the straggling PE.
	PE int
	// Factor is the slowdown multiplier (>= 1) for window faults.
	Factor float64
}

// Plan is a deterministic fault schedule. The zero value injects
// nothing.
type Plan struct {
	// Seed records the generator seed a sampled plan was built from
	// (zero for hand-written plans); it is carried for provenance only.
	Seed uint64
	// Faults fire in the order given; times are absolute virtual time.
	Faults []Fault
}

// Shift returns the plan as seen by a job restarted after elapsed
// virtual time was already consumed by earlier attempts: faults that
// already struck are dropped, later ones move earlier, and windows
// straddling the cut are clipped.
func (p Plan) Shift(elapsed sim.Time) Plan {
	out := Plan{Seed: p.Seed}
	for _, f := range p.Faults {
		switch f.Kind {
		case Crash:
			if f.At <= elapsed {
				continue
			}
			f.At -= elapsed
		default:
			if f.Until <= elapsed {
				continue
			}
			f.Until -= elapsed
			if f.At <= elapsed {
				f.At = 0
			} else {
				f.At -= elapsed
			}
		}
		out.Faults = append(out.Faults, f)
	}
	return out
}

// Arm installs the plan's faults onto a world before it runs. Crashes
// become scheduled node failures; windows configure the machine and
// scheduler layers directly. Crash targets beyond the world's node
// count and straggler targets beyond its PE count are skipped — after a
// shrink recovery, faults aimed at departed hardware have nothing left
// to strike.
//
// Window faults emit their trace spans here, at arm time, rather than
// from simulation callbacks: arming schedules no engine events of its
// own (beyond the crash timers both traced and untraced runs share), so
// tracing a faulty run cannot perturb event ordering.
func (p Plan) Arm(w *ampi.World) error {
	for _, f := range p.Faults {
		switch f.Kind {
		case Crash:
			if f.Node < 0 || f.Node >= len(w.Cluster.Nodes) {
				continue
			}
			if err := w.ScheduleNodeFailure(f.Node, f.At); err != nil {
				return fmt.Errorf("ft: arming %v: %w", f.Kind, err)
			}
		case LinkDegrade:
			w.Cluster.DegradeLinks(f.At, f.Until, f.Factor)
			if t := w.Cluster.Tracer; t != nil && f.Until > f.At {
				t.Emit(trace.Event{Time: f.At, Dur: f.Until - f.At, Kind: trace.KindFault,
					PE: -1, VP: -1, Peer: -1, Aux: trace.FaultLinkDegrade})
			}
		case Straggler:
			scheds := w.Scheds()
			if f.PE < 0 || f.PE >= len(scheds) {
				continue
			}
			scheds[f.PE].AddSlowdown(ult.SlowWindow{Start: f.At, End: f.Until, Factor: f.Factor})
			if t := w.Cluster.Tracer; t != nil && f.Until > f.At {
				t.Emit(trace.Event{Time: f.At, Dur: f.Until - f.At, Kind: trace.KindFault,
					PE: int32(f.PE), VP: -1, Peer: -1, Aux: trace.FaultStraggler})
			}
		default:
			return fmt.Errorf("ft: unknown fault kind %v", f.Kind)
		}
	}
	return nil
}

// Crashes returns just the plan's crash faults, in order.
func (p Plan) Crashes() []Fault {
	var out []Fault
	for _, f := range p.Faults {
		if f.Kind == Crash {
			out = append(out, f)
		}
	}
	return out
}

// CrashPlan samples a crash schedule from a Poisson failure process:
// inter-arrival gaps are exponentially distributed with mean mtbf, the
// struck node is uniform over [0, nodes), and sampling stops at the
// horizon. The plan is a pure function of its arguments — the seeded
// generator lives and dies here — so the same (seed, nodes, mtbf,
// horizon) always yields the same schedule, on any machine, under any
// sweep parallelism.
func CrashPlan(seed uint64, nodes int, mtbf, horizon sim.Time) Plan {
	return crashPlan(seed, nodes, mtbf, horizon, math.MaxInt)
}

func crashPlan(seed uint64, nodes int, mtbf, horizon sim.Time, limit int) Plan {
	p := Plan{Seed: seed}
	if nodes <= 0 || mtbf <= 0 || horizon <= 0 {
		return p
	}
	rng := sim.NewRNG(seed)
	poisson(rng, mtbf, horizon, limit, func(t sim.Time) {
		p.Faults = append(p.Faults, Fault{Kind: Crash, At: t, Node: rng.Intn(nodes)})
	})
	return p
}

// maxPlanEvents bounds what a declarative spec can compile to: a
// FaultSpec's crash count and the MaxEvents a ChurnSpec may ask for.
// Specs arrive from the wire, so the bound is on work, not on meaning —
// the supervisor gives up after MaxRestarts long before a plan this
// long runs dry.
const maxPlanEvents = 1024

// FaultSpec declaratively describes a crash process, the way ChurnSpec
// describes membership change: small, validated, seeded, and what
// scenario documents carry (a Spec's "faults" object). Compile samples
// it into the Plan the supervisor arms.
type FaultSpec struct {
	// Seed drives the Poisson sampler; the same spec always compiles to
	// the same plan.
	Seed uint64 `json:"seed,omitempty"`
	// MTBF is the mean gap between node crashes (0 injects none).
	MTBF sim.Time `json:"mtbf_ns,omitempty"`
	// Horizon bounds sampling; crashes land strictly before it.
	Horizon sim.Time `json:"horizon_ns,omitempty"`
}

// Validate rejects inconsistent specs.
func (s FaultSpec) Validate() error {
	if s.MTBF < 0 || s.Horizon < 0 {
		return fmt.Errorf("ft: fault spec MTBF and horizon must be non-negative")
	}
	if s.MTBF > 0 && s.Horizon == 0 {
		return fmt.Errorf("ft: fault spec needs a positive horizon")
	}
	return nil
}

// Compile is CrashPlan over the spec's fields for a job starting on
// nodes nodes, stopped after maxPlanEvents crashes.
func (s FaultSpec) Compile(nodes int) Plan {
	return crashPlan(s.Seed, nodes, s.MTBF, s.Horizon, maxPlanEvents)
}

// poisson calls emit at each arrival instant of a Poisson process with
// mean gap every, in time order, strictly before horizon and at most
// limit times. Fault plans and churn plans both sample their schedules
// here; emit may draw from r between arrivals.
func poisson(r *sim.RNG, every, horizon sim.Time, limit int, emit func(t sim.Time)) {
	t := sim.Time(0)
	for n := 0; n < limit && every > 0; n++ {
		// Pathological draws are clamped to one tick.
		t += max(sim.Time(-math.Log(1-r.Float64())*float64(every)), 1)
		if t >= horizon || t < 0 {
			return
		}
		emit(t)
	}
}
