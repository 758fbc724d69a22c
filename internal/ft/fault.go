// Package ft is the resilience subsystem: deterministic fault
// injection, supervised restart and shrink recovery, and
// checkpoint-policy math (Young/Daly optimal intervals).
//
// Faults are data, not randomness at run time: a Plan is a list of
// fail-stop node crashes, compiled once (possibly from a seeded MTBF
// process) and then armed onto a world. Runs stay pure functions of
// their inputs, so a run with faults is exactly as reproducible as one
// without, and sweeps over fault scenarios parallelize byte-identically
// (the determinism contract in DESIGN.md §9).
package ft

import (
	"fmt"
	"math"

	"provirt/internal/ampi"
	"provirt/internal/sim"
)

// Fault is one fail-stop node crash.
type Fault struct {
	// At is when the node dies, Node which one.
	At   sim.Time
	Node int
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
// virtual time was already consumed by earlier attempts: crashes that
// already struck are dropped and later ones move earlier.
func (p Plan) Shift(elapsed sim.Time) Plan {
	out := Plan{Seed: p.Seed}
	for _, f := range p.Faults {
		if f.At > elapsed {
			f.At -= elapsed
			out.Faults = append(out.Faults, f)
		}
	}
	return out
}

// Arm schedules the plan's crashes as node failures on a world before
// it runs. Targets beyond the world's node count are skipped — after a
// shrink recovery, crashes aimed at departed nodes have nothing left to
// strike.
func (p Plan) Arm(w *ampi.World) error {
	for _, f := range p.Faults {
		if f.Node < 0 || f.Node >= len(w.Cluster.Nodes) {
			continue
		}
		if err := w.ScheduleNodeFailure(f.Node, f.At); err != nil {
			return fmt.Errorf("ft: arming crash: %w", err)
		}
	}
	return nil
}

// Crashes returns the plan's crashes, in order.
func (p Plan) Crashes() []Fault { return p.Faults }

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
		p.Faults = append(p.Faults, Fault{At: t, Node: rng.Intn(nodes)})
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
