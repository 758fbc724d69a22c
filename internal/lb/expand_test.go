package lb

import (
	"fmt"
	"testing"
)

// Expand-direction coverage: the target set is larger than the set the
// ranks currently occupy (nodes arrived), and GreedyRefineLB must
// donate onto the arrivals — and only onto them.

func TestGreedyRefineExpandDonatesOntoArrivals(t *testing.T) {
	// Four busy PEs; PEs 4 and 5 just arrived empty. Every rank starts
	// inside [0,4), the target set is 6 wide.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(40), Migratable: true},
		{VP: 1, PE: 0, Load: ms(10), Migratable: true},
		{VP: 2, PE: 1, Load: ms(30), Migratable: true},
		{VP: 3, PE: 1, Load: ms(10), Migratable: true},
		{VP: 4, PE: 2, Load: ms(30), Migratable: true},
		{VP: 5, PE: 2, Load: ms(10), Migratable: true},
		{VP: 6, PE: 3, Load: ms(30), Migratable: true},
		{VP: 7, PE: 3, Load: ms(10), Migratable: true},
	}
	const numPEs = 6
	assign := GreedyRefineLB{Expand: []int{4, 5}}.Rebalance(loads, numPEs)
	if err := Validate(loads, numPEs, assign); err != nil {
		t.Fatal(err)
	}
	// Every move must land on an arrival; unmoved ranks stay put.
	moves := 0
	for i, pe := range assign {
		if pe == loads[i].PE {
			continue
		}
		moves++
		if pe != 4 && pe != 5 {
			t.Errorf("rank %d moved to PE %d, not an arrival", loads[i].VP, pe)
		}
	}
	if moves == 0 {
		t.Fatal("expansion moved nothing onto the new PEs")
	}
	// Both arrivals must actually receive work.
	peLoad := PELoads(applyAssign(loads, assign), numPEs)
	if peLoad[4] == 0 || peLoad[5] == 0 {
		t.Errorf("arrival loads = %v / %v, want both non-zero", peLoad[4], peLoad[5])
	}
	// Balance must improve.
	before := Imbalance(loads, numPEs)
	after := Imbalance(applyAssign(loads, assign), numPEs)
	if after >= before {
		t.Errorf("imbalance %v -> %v, want improvement", before, after)
	}
}

func TestGreedyRefineExpandGolden(t *testing.T) {
	// Pinned decision for the canonical expand shape: 2 busy PEs, one
	// arrival. The overloaded PE donates its cheapest migratable state
	// onto the arrival.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(40), Migratable: true},
		{VP: 1, PE: 0, Load: ms(20), Migratable: true},
		{VP: 2, PE: 0, Load: ms(10), Migratable: true},
		{VP: 3, PE: 1, Load: ms(30), Migratable: true},
	}
	const numPEs = 3
	assign := GreedyRefineLB{Expand: []int{2}}.Rebalance(loads, numPEs)
	if err := Validate(loads, numPEs, assign); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 2, 1}
	if fmt.Sprint(assign) != fmt.Sprint(want) {
		t.Errorf("assignment = %v, want %v", assign, want)
	}
}

func TestGreedyRefineExpandEmptySetMatchesDefault(t *testing.T) {
	// An absent (or fully out-of-range) expand set must reproduce the
	// default refinement byte for byte — the churn-free guarantee at
	// the strategy layer.
	loads := []RankLoad{
		{VP: 0, PE: 0, Load: ms(40), Migratable: true},
		{VP: 1, PE: 0, Load: ms(10), Migratable: true},
		{VP: 2, PE: 1, Load: ms(20), Migratable: true},
		{VP: 3, PE: 2, Load: ms(10), Migratable: true},
		{VP: 4, PE: 3, Load: ms(10), Migratable: true},
	}
	const numPEs = 4
	base := GreedyRefineLB{}.Rebalance(loads, numPEs)
	nilSet := GreedyRefineLB{Expand: nil}.Rebalance(loads, numPEs)
	oob := GreedyRefineLB{Expand: []int{numPEs + 7, -1}}.Rebalance(loads, numPEs)
	if fmt.Sprint(nilSet) != fmt.Sprint(base) || fmt.Sprint(oob) != fmt.Sprint(base) {
		t.Errorf("expand-less runs diverge: base %v, nil %v, oob %v", base, nilSet, oob)
	}
}

func TestGreedyRefineExpandPlacesDisplacedToo(t *testing.T) {
	// Expand and displaced ranks can coexist (rolling restart: a node
	// left and another arrived). Displaced ranks may land anywhere;
	// donations still target the arrivals only.
	loads := []RankLoad{
		{VP: 0, PE: -1, Load: ms(30), Migratable: true},
		{VP: 1, PE: 0, Load: ms(40), Migratable: true},
		{VP: 2, PE: 0, Load: ms(10), Migratable: true},
		{VP: 3, PE: 1, Load: ms(20), Migratable: true},
	}
	const numPEs = 3
	assign := GreedyRefineLB{Expand: []int{2}}.Rebalance(loads, numPEs)
	if err := Validate(loads, numPEs, assign); err != nil {
		t.Fatal(err)
	}
	if assign[0] < 0 || assign[0] >= numPEs {
		t.Fatalf("displaced rank left unplaced: %v", assign)
	}
}

func applyAssign(loads []RankLoad, assign []int) []RankLoad {
	out := make([]RankLoad, len(loads))
	for i, l := range loads {
		out[i] = l
		out[i].PE = assign[i]
	}
	return out
}
