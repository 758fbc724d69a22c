package ft

import (
	"fmt"
	"sort"

	"provirt/internal/sim"
)

// Churn is membership change as data, the same discipline as fault
// Plans: a ChurnPlan is a list of node arrivals and evictions at
// absolute virtual times, compiled once (possibly from seeded Poisson
// processes) and then executed by the supervisor (RunElastic). Runs under
// churn stay pure functions of their configuration.

// ChurnKind classifies a membership event.
type ChurnKind int

const (
	// Arrival adds nodes (capacity grew).
	Arrival ChurnKind = iota
	// Eviction removes one node, with an optional notice window —
	// the spot/preemptible-instance reclaim.
	Eviction
)

// String names the kind ("arrival", "eviction").
func (k ChurnKind) String() string {
	switch k {
	case Arrival:
		return "arrival"
	case Eviction:
		return "eviction"
	default:
		return fmt.Sprintf("unknown(%d)", int(k))
	}
}

// ChurnEvent is one membership change on the job's absolute timeline.
type ChurnEvent struct {
	Kind ChurnKind
	// At is the absolute virtual time the event is announced: when an
	// arrival's nodes become available, or when an eviction notice
	// lands (the node itself leaves at At+Notice).
	At sim.Time
	// Count is how many nodes an Arrival adds (>= 1).
	Count int
	// Node selects the Eviction victim; the supervisor reduces it
	// modulo the live node count at execution time, so compiled plans
	// stay valid as the cluster resizes.
	Node int
	// Notice is the Eviction's warning window. A notice long enough to
	// reach the job's next checkpointable consistency point turns the
	// eviction into a zero-rework drain; a shorter one degrades into a
	// crash.
	Notice sim.Time
}

// ChurnPlan is a deterministic membership schedule. The zero value
// changes nothing.
type ChurnPlan struct {
	// Seed records the generator seed a sampled plan was built from
	// (zero for hand-written plans); carried for provenance only.
	Seed uint64
	// Events fire in order; times are absolute virtual time from the
	// original job start and must be non-decreasing.
	Events []ChurnEvent
}

// Validate checks event ordering and shapes.
func (p ChurnPlan) Validate() error {
	var last sim.Time
	for i, ev := range p.Events {
		if ev.At < last {
			return fmt.Errorf("ft: churn event %d at %v precedes event %d at %v", i, ev.At, i-1, last)
		}
		last = ev.At
		switch ev.Kind {
		case Arrival:
			if ev.Count < 1 {
				return fmt.Errorf("ft: churn event %d: arrival of %d nodes", i, ev.Count)
			}
		case Eviction:
			if ev.Notice < 0 {
				return fmt.Errorf("ft: churn event %d: negative notice %v", i, ev.Notice)
			}
		default:
			return fmt.Errorf("ft: churn event %d: unknown kind %v", i, ev.Kind)
		}
	}
	return nil
}

// ChurnSpec declaratively describes a churn regime; Compile samples it
// into a concrete plan. The spec is what scenario files carry — small,
// validated, and seeded, its JSON tags the wire format of a Spec's
// "churn" object — while the plan is what the supervisor executes.
type ChurnSpec struct {
	// Seed drives the Poisson samplers; the same spec always compiles
	// to the same plan.
	Seed uint64 `json:"seed,omitempty"`
	// ArrivalEvery is the mean gap between single-node arrivals
	// (0 disables arrivals).
	ArrivalEvery sim.Time `json:"arrival_every_ns,omitempty"`
	// EvictionEvery is the mean gap between evictions (0 disables).
	EvictionEvery sim.Time `json:"eviction_every_ns,omitempty"`
	// Notice is the warning window every sampled eviction carries.
	Notice sim.Time `json:"notice_ns,omitempty"`
	// Horizon bounds sampling; events land strictly before it.
	Horizon sim.Time `json:"horizon_ns,omitempty"`
	// RollingEvery, when positive, adds a deterministic rolling
	// restart on top of the sampled churn: starting at RollingEvery,
	// every RollingEvery one node in turn is evicted with Notice and
	// immediately replaced by an arrival — the kernel-upgrade walk
	// across the fleet.
	RollingEvery sim.Time `json:"rolling_every_ns,omitempty"`
	// RollingNodes bounds how many rolling steps are generated
	// (default: one full walk over the compile-time node count).
	RollingNodes int `json:"rolling_nodes,omitempty"`
	// MaxEvents bounds the compiled plan (default 64).
	MaxEvents int `json:"max_events,omitempty"`
}

// Enabled reports whether the spec describes any churn at all.
func (s ChurnSpec) Enabled() bool {
	return s.ArrivalEvery > 0 || s.EvictionEvery > 0 || s.RollingEvery > 0
}

// Validate rejects inconsistent specs.
func (s ChurnSpec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("ft: churn spec needs a positive horizon")
	}
	if s.ArrivalEvery < 0 || s.EvictionEvery < 0 || s.RollingEvery < 0 {
		return fmt.Errorf("ft: churn spec rates must be non-negative")
	}
	if s.Notice < 0 {
		return fmt.Errorf("ft: churn spec notice must be non-negative")
	}
	if s.MaxEvents < 0 || s.MaxEvents > maxPlanEvents {
		return fmt.Errorf("ft: churn spec max events must be in [0, %d]", maxPlanEvents)
	}
	return nil
}

// Compile samples the spec into a concrete plan for a job starting on
// nodes nodes. Pure: the seeded generators live and die here, so the
// same (spec, nodes) yields the same plan under any sweep parallelism.
//
// Every stream is generated in time order and the merged plan keeps only
// its first MaxEvents events, so no stream is ever asked for more than
// that many: the work is bounded by MaxEvents, not by Horizon/rate.
func (s ChurnSpec) Compile(nodes int) ChurnPlan {
	p := ChurnPlan{Seed: s.Seed}
	if !s.Enabled() || s.Horizon <= 0 || nodes <= 0 {
		return p
	}
	limit := s.MaxEvents
	if limit <= 0 {
		limit = 64
	}
	// Independent sub-streams per process, forked from the spec seed,
	// so enabling one process never reshuffles another.
	rng := sim.NewRNG(s.Seed)
	poisson(rng.Fork(1), s.ArrivalEvery, s.Horizon, limit, func(t sim.Time) {
		p.Events = append(p.Events, ChurnEvent{Kind: Arrival, At: t, Count: 1})
	})
	evrng := rng.Fork(2)
	poisson(evrng, s.EvictionEvery, s.Horizon, limit, func(t sim.Time) {
		p.Events = append(p.Events, ChurnEvent{Kind: Eviction, At: t, Node: evrng.Intn(nodes), Notice: s.Notice})
	})
	if s.RollingEvery > 0 {
		steps := s.RollingNodes
		if steps <= 0 {
			steps = nodes
		}
		// Two events a step; at < 0 is the step instant overflowing.
		at := s.RollingEvery
		for i := 0; i < steps && 2*i < limit && at < s.Horizon && at > 0; i++ {
			p.Events = append(p.Events,
				ChurnEvent{Kind: Eviction, At: at, Node: i, Notice: s.Notice},
				ChurnEvent{Kind: Arrival, At: at, Count: 1})
			at += s.RollingEvery
		}
	}
	// Merge the streams into one timeline. The sort is stable and the
	// streams were appended in a fixed order, so ties break the same
	// way everywhere.
	sort.SliceStable(p.Events, func(a, b int) bool { return p.Events[a].At < p.Events[b].At })
	if len(p.Events) > limit {
		p.Events = p.Events[:limit]
	}
	return p
}
