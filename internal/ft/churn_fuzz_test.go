package ft_test

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"provirt/internal/ft"
	"provirt/internal/sim"
)

// oracleCompile is ChurnSpec.Compile as it was before it stopped each
// stream at MaxEvents: generate every event before the horizon, sort,
// then truncate. Its work grows with Horizon/rate and RollingNodes, so
// the fuzz target only runs it on specs small enough to finish.
func oracleCompile(s ft.ChurnSpec, nodes int) ft.ChurnPlan {
	p := ft.ChurnPlan{Seed: s.Seed}
	if !s.Enabled() || s.Horizon <= 0 || nodes <= 0 {
		return p
	}
	rng := sim.NewRNG(s.Seed)
	sample := func(r *sim.RNG, every sim.Time, emit func(t sim.Time)) {
		if every <= 0 {
			return
		}
		t := sim.Time(0)
		for {
			gap := sim.Time(-math.Log(1-r.Float64()) * float64(every))
			if gap < 1 {
				gap = 1
			}
			t += gap
			if t >= s.Horizon || t < 0 {
				return
			}
			emit(t)
		}
	}
	sample(rng.Fork(1), s.ArrivalEvery, func(t sim.Time) {
		p.Events = append(p.Events, ft.ChurnEvent{Kind: ft.Arrival, At: t, Count: 1})
	})
	evrng := rng.Fork(2)
	sample(evrng, s.EvictionEvery, func(t sim.Time) {
		p.Events = append(p.Events, ft.ChurnEvent{Kind: ft.Eviction, At: t, Node: evrng.Intn(nodes), Notice: s.Notice})
	})
	if s.RollingEvery > 0 {
		steps := s.RollingNodes
		if steps <= 0 {
			steps = nodes
		}
		for i := 0; i < steps; i++ {
			at := s.RollingEvery * sim.Time(i+1)
			if at >= s.Horizon {
				break
			}
			p.Events = append(p.Events,
				ft.ChurnEvent{Kind: ft.Eviction, At: at, Node: i, Notice: s.Notice},
				ft.ChurnEvent{Kind: ft.Arrival, At: at, Count: 1})
		}
	}
	sort.SliceStable(p.Events, func(a, b int) bool { return p.Events[a].At < p.Events[b].At })
	max := s.MaxEvents
	if max <= 0 {
		max = 64
	}
	if len(p.Events) > max {
		p.Events = p.Events[:max]
	}
	return p
}

// FuzzChurnCompile feeds ChurnSpec.Compile the field values a -churn-*
// flag or a wire Spec can carry, valid or not. Compile must not panic,
// must do work bounded by MaxEvents rather than by the horizon, must
// honour MaxEvents, must be a pure function of its input, must produce
// a plan that validates whenever the spec does, and must agree with the
// generate-everything-then-truncate compiler wherever that one can run.
func FuzzChurnCompile(f *testing.F) {
	ms := int64(time.Millisecond)
	f.Add(uint64(11), 200*ms, 300*ms, 10*ms, 2000*ms, int64(0), 0, 0, 4)
	f.Add(uint64(0), int64(0), ms, int64(0), 1000*ms, int64(0), 0, 5, 4)            // truncation
	f.Add(uint64(0), int64(0), int64(0), 5*ms, 1000*ms, 50*ms, 0, 0, 3)             // rolling walk
	f.Add(uint64(3), 7*ms, 5*ms, ms, 400*ms, 30*ms, 9, 12, 5)                       // all three streams
	f.Add(uint64(0), int64(0), int64(1), int64(0), int64(1)<<62, int64(0), 0, 0, 4) // 4e18 events before the cap
	f.Add(uint64(0), int64(0), int64(0), int64(0), int64(1)<<62, int64(1), 1<<40, 0, 4)
	f.Add(uint64(0), int64(0), int64(0), int64(0), int64(math.MaxInt64), int64(1)<<62, 8, 0, 4) // step instant overflows
	f.Add(uint64(1), -ms, ms, -ms, 10*ms, int64(0), -1, -1, 2)                                  // invalid spec
	f.Fuzz(func(t *testing.T, seed uint64, arrival, eviction, notice, horizon, rolling int64, rollingNodes, maxEvents, nodes int) {
		spec := ft.ChurnSpec{
			Seed:          seed,
			ArrivalEvery:  sim.Time(arrival),
			EvictionEvery: sim.Time(eviction),
			Notice:        sim.Time(notice),
			Horizon:       sim.Time(horizon),
			RollingEvery:  sim.Time(rolling),
			RollingNodes:  rollingNodes,
			// A caller that asks for a billion events gets a billion
			// events; the bound under test is MaxEvents itself.
			MaxEvents: maxEvents % 4096,
		}
		began := time.Now()
		plan := spec.Compile(nodes)
		if took := time.Since(began); took > 2*time.Second {
			t.Fatalf("Compile took %v for %+v on %d nodes", took, spec, nodes)
		}
		limit := spec.MaxEvents
		if limit <= 0 {
			limit = 64
		}
		if len(plan.Events) > limit {
			t.Fatalf("%d events, MaxEvents %d", len(plan.Events), limit)
		}
		if spec.Validate() == nil {
			if err := plan.Validate(); err != nil {
				t.Fatalf("valid spec %+v compiled to an invalid plan: %v", spec, err)
			}
		}
		if again := spec.Compile(nodes); !reflect.DeepEqual(plan, again) {
			t.Fatalf("same spec, two plans:\n%+v\n%+v", plan, again)
		}
		// The old compiler emits one event per tick at worst and one
		// rolling step per RollingNodes, and multiplies RollingEvery by
		// the step number without checking for overflow.
		if horizon <= 1<<14 && rollingNodes <= 1<<14 && nodes <= 1<<14 {
			if want := oracleCompile(spec, nodes); !reflect.DeepEqual(plan, want) {
				t.Fatalf("capped plan differs from sort-then-truncate for %+v on %d nodes:\n%+v\n%+v", spec, nodes, plan, want)
			}
		}
	})
}
