package lb

import (
	"testing"
	"testing/quick"

	"provirt/internal/sim"
)

func mkLoads(loads []int64, pes int) []RankLoad {
	out := make([]RankLoad, len(loads))
	for i, l := range loads {
		out[i] = RankLoad{VP: i, PE: i % pes, Load: sim.Time(l), Migratable: true}
	}
	return out
}

func TestPELoadsAndImbalance(t *testing.T) {
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: 10},
		{VP: 1, PE: 0, Load: 20},
		{VP: 2, PE: 1, Load: 30},
	}
	pe := PELoads(loads, 2)
	if pe[0] != 30 || pe[1] != 30 {
		t.Fatalf("PELoads = %v", pe)
	}
	if im := Imbalance(loads, 2); im != 1 {
		t.Fatalf("balanced imbalance = %v", im)
	}
	loads[2].PE = 0
	if im := Imbalance(loads, 2); im != 2 {
		t.Fatalf("imbalance = %v, want 2 (all load on one of two PEs)", im)
	}
	if Imbalance(nil, 4) != 1 {
		t.Fatal("empty imbalance")
	}
}

func TestGreedyRefineMovesLittleWhenBalanced(t *testing.T) {
	loads := mkLoads([]int64{10, 10, 10, 10}, 4) // perfectly balanced
	assign := GreedyRefineLB{}.Rebalance(loads, 4)
	for i, pe := range assign {
		if pe != loads[i].PE {
			t.Fatalf("refine moved rank %d on balanced input", i)
		}
	}
}

func TestGreedyRefineFixesHotspot(t *testing.T) {
	// PE 0 has 4 ranks of load; PEs 1-3 idle.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: 40, Migratable: true},
		{VP: 1, PE: 0, Load: 40, Migratable: true},
		{VP: 2, PE: 0, Load: 40, Migratable: true},
		{VP: 3, PE: 0, Load: 40, Migratable: true},
	}
	assign := GreedyRefineLB{}.Rebalance(loads, 4)
	if err := Validate(loads, 4, assign); err != nil {
		t.Fatal(err)
	}
	after := make([]sim.Time, 4)
	for i, pe := range assign {
		after[pe] += loads[i].Load
	}
	var max sim.Time
	for _, l := range after {
		if l > max {
			max = l
		}
	}
	if max > 80 {
		t.Fatalf("refine left a %v hotspot: %v", max, assign)
	}
}

func TestRotateLB(t *testing.T) {
	loads := mkLoads([]int64{1, 2, 3, 4}, 2)
	rot := RotateLB{}.Rebalance(loads, 2)
	for i, pe := range rot {
		if pe != (loads[i].PE+1)%2 {
			t.Fatalf("rotate wrong at %d", i)
		}
	}
}

func TestValidateCatchesBadAssignments(t *testing.T) {
	loads := mkLoads([]int64{1, 2}, 2)
	if Validate(loads, 2, []int{0}) == nil {
		t.Error("short assignment accepted")
	}
	if Validate(loads, 2, []int{0, 5}) == nil {
		t.Error("out-of-range PE accepted")
	}
	loads[1].Migratable = false
	if Validate(loads, 2, []int{0, 0}) == nil {
		t.Error("moved non-migratable rank accepted")
	}
}

// Property: every strategy returns a valid assignment, and
// GreedyRefineLB never *worsens* the hotspot.
func TestStrategiesProperty(t *testing.T) {
	strategies := []Strategy{GreedyRefineLB{}, RotateLB{}}
	f := func(raw []uint16, pes8 uint8) bool {
		pes := int(pes8%8) + 1
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		loads := make([]RankLoad, len(raw))
		for i, r := range raw {
			loads[i] = RankLoad{
				VP: i, PE: i % pes, Load: sim.Time(r),
				Migratable: r%5 != 0, // some non-migratable
			}
		}
		beforeMax := maxLoad(PELoads(loads, pes))
		for _, s := range strategies {
			assign := s.Rebalance(loads, pes)
			if Validate(loads, pes, assign) != nil {
				return false
			}
			// Only GreedyRefineLB guarantees the hotspot never worsens
			// (it moves a rank only when the destination stays below the
			// source); RotateLB moves every rank regardless of load.
			if _, checkNoWorse := s.(GreedyRefineLB); checkNoWorse {
				moved := make([]RankLoad, len(loads))
				copy(moved, loads)
				for i := range moved {
					moved[i].PE = assign[i]
				}
				if maxLoad(PELoads(moved, pes)) > beforeMax {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func maxLoad(pe []sim.Time) sim.Time {
	var m sim.Time
	for _, l := range pe {
		if l > m {
			m = l
		}
	}
	return m
}
