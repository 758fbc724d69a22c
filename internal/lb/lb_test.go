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

func TestGreedyLBBalances(t *testing.T) {
	loads := mkLoads([]int64{100, 100, 100, 100, 1, 1, 1, 1}, 2)
	assign := GreedyLB{}.Rebalance(loads, 4)
	if err := Validate(loads, 4, assign); err != nil {
		t.Fatal(err)
	}
	// The four heavy ranks must land on four distinct PEs.
	heavy := map[int]bool{}
	for i := 0; i < 4; i++ {
		heavy[assign[i]] = true
	}
	if len(heavy) != 4 {
		t.Fatalf("heavy ranks on %d PEs: %v", len(heavy), assign[:4])
	}
}

func TestGreedyLBPinsNonMigratable(t *testing.T) {
	loads := mkLoads([]int64{100, 100, 1, 1}, 1) // all on PE 0
	loads[0].Migratable = false
	assign := GreedyLB{}.Rebalance(loads, 4)
	if assign[0] != 0 {
		t.Fatal("non-migratable rank moved")
	}
	if err := Validate(loads, 4, assign); err != nil {
		t.Fatal(err)
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

func TestRotateAndNull(t *testing.T) {
	loads := mkLoads([]int64{1, 2, 3, 4}, 2)
	rot := RotateLB{}.Rebalance(loads, 2)
	for i, pe := range rot {
		if pe != (loads[i].PE+1)%2 {
			t.Fatalf("rotate wrong at %d", i)
		}
	}
	nul := NullLB{}.Rebalance(loads, 2)
	for i, pe := range nul {
		if pe != loads[i].PE {
			t.Fatalf("null moved rank %d", i)
		}
	}
}

// crossNodeMoves counts assignments that change a rank's node — the
// expensive moves a topology-aware balancer minimizes.
func crossNodeMoves(loads []RankLoad, assign []int, pesPerNode int) int {
	if pesPerNode <= 0 {
		return 0
	}
	n := 0
	for i, l := range loads {
		if l.PE/pesPerNode != assign[i]/pesPerNode {
			n++
		}
	}
	return n
}

func TestHierarchicalLBBalancesAndMinimizesCrossNodeMoves(t *testing.T) {
	// 2 nodes x 4 PEs with EQUAL node totals but one hot PE inside each
	// node: the fix never requires crossing a node boundary, so a
	// topology-aware balancer should make zero inter-node moves, while
	// flat greedy scatters ranks over all 8 PEs.
	var loads []RankLoad
	for i := 0; i < 4; i++ {
		loads = append(loads, RankLoad{VP: i, PE: 0, Load: 25, Migratable: true})
	}
	for i := 4; i < 8; i++ {
		loads = append(loads, RankLoad{VP: i, PE: 4, Load: 25, Migratable: true})
	}
	h := HierarchicalLB{PEsPerNode: 4}
	assign := h.Rebalance(loads, 8)
	if err := Validate(loads, 8, assign); err != nil {
		t.Fatal(err)
	}
	moved := make([]RankLoad, len(loads))
	copy(moved, loads)
	for i := range moved {
		moved[i].PE = assign[i]
	}
	before := Imbalance(loads, 8)
	after := Imbalance(moved, 8)
	if after >= before {
		t.Errorf("imbalance %v -> %v; hierarchical balancer did not help", before, after)
	}
	if cross := crossNodeMoves(loads, assign, 4); cross != 0 {
		t.Errorf("hierarchical made %d cross-node moves; intra-node refinement sufficed", cross)
	}
	// Flat greedy, blind to topology, crosses nodes for the same fix.
	flat := GreedyLB{}.Rebalance(loads, 8)
	if fCross := crossNodeMoves(loads, flat, 4); fCross == 0 {
		t.Skip("flat greedy happened to respect node boundaries on this input")
	}
}

// TestHierarchicalLBMovesAcrossNodesWhenNeeded: with genuinely skewed
// node totals, level 1 must move ranks between nodes.
func TestHierarchicalLBMovesAcrossNodesWhenNeeded(t *testing.T) {
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: 50, Migratable: true},
		{VP: 1, PE: 1, Load: 50, Migratable: true},
		{VP: 2, PE: 2, Load: 50, Migratable: true},
		{VP: 3, PE: 3, Load: 50, Migratable: true},
		{VP: 4, PE: 4, Load: 10, Migratable: true},
	}
	assign := HierarchicalLB{PEsPerNode: 4}.Rebalance(loads, 8)
	if err := Validate(loads, 8, assign); err != nil {
		t.Fatal(err)
	}
	if cross := crossNodeMoves(loads, assign, 4); cross == 0 {
		t.Error("node totals 200 vs 10 and no cross-node move")
	}
}

func TestHierarchicalLBPinsNonMigratable(t *testing.T) {
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: 100, Migratable: false},
		{VP: 1, PE: 0, Load: 100, Migratable: true},
		{VP: 2, PE: 0, Load: 100, Migratable: true},
	}
	assign := HierarchicalLB{PEsPerNode: 2}.Rebalance(loads, 4)
	if err := Validate(loads, 4, assign); err != nil {
		t.Fatal(err)
	}
	if assign[0] != 0 {
		t.Fatal("pinned rank moved")
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

// Property: every strategy returns a valid assignment and never
// increases max PE load beyond the pre-existing max plus one rank (for
// the greedy family, it must not *worsen* the hotspot).
func TestStrategiesProperty(t *testing.T) {
	strategies := []Strategy{GreedyLB{}, GreedyRefineLB{}, RotateLB{}, NullLB{}, HierarchicalLB{PEsPerNode: 2}}
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
			// source). GreedyLB repacks from scratch largest-first, and
			// like any LPT schedule it can exceed an already-balanced
			// incumbent even when every rank is migratable — e.g. loads
			// {0x7e17,0xb881,0xb015,0xca68,0xa0fc,0x5e3c,0xdf26,0xd178}
			// on 2 PEs repack to a higher max than the round-robin start.
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
