package lb

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"provirt/internal/sim"
)

// Golden-mapping tests: GreedyRefineLB is the strategy both the ADCIRC
// runs and the elastic supervisor's reshapes depend on, so its exact
// decisions on crafted load vectors are pinned here. If the strategy
// changes, these goldens change — update them only with the
// before/after Imbalance numbers in hand.

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Millisecond) }

func TestGreedyRefineGoldenHotspotWithPin(t *testing.T) {
	// PE0 is overloaded and holds a non-migratable rank; the refiner
	// must drain PE0 around the pin, cheapest state first.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(40), Migratable: true},
		{VP: 1, PE: 0, Load: ms(10), Migratable: true},
		{VP: 2, PE: 0, Load: ms(30), Migratable: false},
		{VP: 3, PE: 1, Load: ms(20), Migratable: true},
		{VP: 4, PE: 2, Load: ms(10), Migratable: true},
		{VP: 5, PE: 3, Load: ms(10), Migratable: true},
	}
	const numPEs = 4
	if got, want := Imbalance(loads, numPEs), 8.0/3.0; got != want {
		t.Fatalf("pre-balance imbalance = %v, want %v", got, want)
	}
	assign := GreedyRefineLB{}.Rebalance(loads, numPEs)
	if err := Validate(loads, numPEs, assign); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 2, 0, 1, 2, 1}
	if fmt.Sprint(assign) != fmt.Sprint(want) {
		t.Errorf("assignment = %v, want %v", assign, want)
	}
	after := make([]RankLoad, len(loads))
	for i, l := range loads {
		after[i] = l
		after[i].PE = assign[i]
	}
	if got, want := Imbalance(after, numPEs), 4.0/3.0; got != want {
		t.Errorf("post-balance imbalance = %v, want %v", got, want)
	}
}

func TestGreedyRefineGoldenShrinkPlacesDisplaced(t *testing.T) {
	// The shrink-recovery shape: a 3-node x 2-PE machine loses node 1,
	// so its two ranks are displaced (PE -1) and the old node-2 PEs have
	// been renumbered down to 2 and 3. The survivors are perfectly
	// balanced; the refiner must seat the displaced ranks heaviest-first
	// on the least-loaded survivors.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(20), Migratable: true},
		{VP: 1, PE: 1, Load: ms(20), Migratable: true},
		{VP: 2, PE: -1, Load: ms(30), Migratable: true},
		{VP: 3, PE: -1, Load: ms(10), Migratable: true},
		{VP: 4, PE: 2, Load: ms(20), Migratable: true},
		{VP: 5, PE: 3, Load: ms(20), Migratable: true},
	}
	const numPEs = 4
	// Displaced ranks carry no PE load yet, so the surviving machine
	// reads as balanced.
	if got := Imbalance(loads, numPEs); got != 1.0 {
		t.Fatalf("pre-balance imbalance = %v, want 1 (displaced ranks carry no load)", got)
	}
	assign := GreedyRefineLB{}.Rebalance(loads, numPEs)
	if err := Validate(loads, numPEs, assign); err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1, 0, 1, 2, 3}
	if fmt.Sprint(assign) != fmt.Sprint(want) {
		t.Errorf("assignment = %v, want %v", assign, want)
	}
	after := make([]RankLoad, len(loads))
	for i, l := range loads {
		after[i] = l
		after[i].PE = assign[i]
	}
	if got, want := Imbalance(after, numPEs), 4.0/3.0; got != want {
		t.Errorf("post-balance imbalance = %v, want %v", got, want)
	}
}

func TestValidateRejectsDisplacedNonMigratable(t *testing.T) {
	// A non-migratable rank whose PE died cannot be recovered by
	// shrinking: any seat the strategy finds for it is a move, and
	// Validate must say why.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(10), Migratable: true},
		{VP: 7, PE: -1, Load: ms(10), Migratable: false},
	}
	const numPEs = 2
	assign := GreedyRefineLB{}.Rebalance(loads, numPEs)
	err := Validate(loads, numPEs, assign)
	if err == nil {
		t.Fatal("Validate accepted a displaced non-migratable rank")
	}
	if want := "non-migratable rank 7 cannot be remapped off departed PE"; !strings.Contains(err.Error(), want) {
		t.Errorf("error = %q, want it to mention %q", err, want)
	}
}
