// Package lb implements dynamic load balancing strategies in the style
// of Charm++'s centralized balancers, including the GreedyRefineLB
// strategy the paper uses for ADCIRC (§4.6).
//
// A strategy sees only measured per-rank loads and the current
// rank-to-PE mapping; it returns a new mapping. Executing the decision
// (serializing and moving rank state) is the runtime's job, so the
// rebalancing logic stays separate from application logic, as §2.1
// emphasizes.
package lb

import (
	"fmt"
	"sort"

	"provirt/internal/sim"
)

// RankLoad is one rank's measured load since the previous balancing
// step.
type RankLoad struct {
	VP int
	// PE is the rank's current processing element. A value outside
	// [0, numPEs) marks a *displaced* rank: its PE no longer exists
	// (its node left the machine), so a shrink-aware strategy must find
	// it a new home.
	PE   int
	Load sim.Time
	// Migratable reports whether the runtime can move this rank; a
	// strategy must keep non-migratable ranks in place.
	Migratable bool
}

// Displaced reports whether the rank's current PE is gone under a
// numPEs-wide machine.
func (l RankLoad) Displaced(numPEs int) bool { return l.PE < 0 || l.PE >= numPEs }

// Strategy decides a new rank-to-PE mapping.
type Strategy interface {
	Name() string
	// Rebalance returns the destination PE for each rank, indexed as
	// loads is. Implementations must return len(loads) entries within
	// [0, numPEs).
	Rebalance(loads []RankLoad, numPEs int) []int
}

// PELoads aggregates rank loads by PE. Displaced ranks (PE outside
// [0, numPEs)) are skipped: they contribute load only once a strategy
// has placed them.
func PELoads(loads []RankLoad, numPEs int) []sim.Time {
	out := make([]sim.Time, numPEs)
	for _, l := range loads {
		if l.Displaced(numPEs) {
			continue
		}
		out[l.PE] += l.Load
	}
	return out
}

// Imbalance returns max/mean PE load (1.0 = perfectly balanced). An
// empty or zero-load input returns 1.
func Imbalance(loads []RankLoad, numPEs int) float64 {
	pe := PELoads(loads, numPEs)
	var total, max sim.Time
	for _, l := range pe {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(numPEs)
	return float64(max) / mean
}

// Validate checks a strategy result against the invariants every
// balancer must preserve.
func Validate(loads []RankLoad, numPEs int, assign []int) error {
	if len(assign) != len(loads) {
		return fmt.Errorf("lb: assignment has %d entries for %d ranks", len(assign), len(loads))
	}
	for i, pe := range assign {
		if pe < 0 || pe >= numPEs {
			return fmt.Errorf("lb: rank %d assigned to PE %d of %d", loads[i].VP, pe, numPEs)
		}
		if !loads[i].Migratable && pe != loads[i].PE {
			if loads[i].Displaced(numPEs) {
				return fmt.Errorf("lb: non-migratable rank %d cannot be remapped off departed PE %d",
					loads[i].VP, loads[i].PE)
			}
			return fmt.Errorf("lb: non-migratable rank %d moved from PE %d to %d", loads[i].VP, loads[i].PE, pe)
		}
	}
	return nil
}

// Trigger decides whether a balancing opportunity (an AMPI_Migrate
// collective) is worth acting on. Migration is expensive — under
// PIEglobals each moved rank carries its code segment — so adaptive
// runtimes skip rebalancing while the system is already balanced.
type Trigger interface {
	// ShouldBalance reports whether to run the strategy now.
	ShouldBalance(loads []RankLoad, numPEs int) bool
}

// ImbalanceTrigger rebalances only when max/mean PE load exceeds a
// threshold, in the spirit of Charm++'s adaptive MetaLB.
type ImbalanceTrigger struct {
	// Threshold is the max/mean ratio above which balancing runs
	// (default 1.1).
	Threshold float64
}

// ShouldBalance implements Trigger.
func (g ImbalanceTrigger) ShouldBalance(loads []RankLoad, numPEs int) bool {
	th := g.Threshold
	if th <= 0 {
		th = 1.1
	}
	return Imbalance(loads, numPEs) > th
}

// tolerance is the overload ratio over the mean PE load a PE may carry
// before it must donate ranks.
const tolerance = 1.05

// GreedyRefineLB improves balance while minimizing migrations: only
// PEs loaded above tolerance over the mean donate ranks, and they
// donate their smallest ranks first to the least-loaded PEs. This is
// the strategy the paper's ADCIRC runs use.
//
// GreedyRefineLB is shrink-aware: ranks whose current PE is outside
// [0, numPEs) (their node failed, or its cores were returned to the
// scheduler) are treated as displaced and placed first, heaviest onto
// the least-loaded surviving PE, before the refinement pass runs. This
// is the remap a shrinking machine (an eviction under churn) drives.
//
// It is also expand-aware: when Expand names freshly arrived PEs, the
// donation pass sends ranks only onto those arrivals, so an expansion
// migrates exactly the work needed to fill the new capacity instead of
// reshuffling the whole machine.
type GreedyRefineLB struct {
	// Expand optionally names PE ids that just joined the machine
	// (empty, inside [0, numPEs)). When non-empty, donations target
	// only these PEs — the rebalance-onto-arrivals pass an expansion
	// epoch runs. Displaced ranks may still land anywhere.
	Expand []int
}

// Name implements Strategy.
func (GreedyRefineLB) Name() string { return "GreedyRefineLB" }

// Rebalance implements Strategy.
func (g GreedyRefineLB) Rebalance(loads []RankLoad, numPEs int) []int {
	assign := make([]int, len(loads))
	peLoad := make([]sim.Time, numPEs)
	byPE := make([][]int, numPEs)
	var displaced []int
	var total sim.Time
	for i, l := range loads {
		if l.Displaced(numPEs) {
			displaced = append(displaced, i)
			total += l.Load
			continue
		}
		assign[i] = l.PE
		peLoad[l.PE] += l.Load
		byPE[l.PE] = append(byPE[l.PE], i)
		total += l.Load
	}
	// Place displaced ranks first, heaviest onto the least-loaded
	// surviving PE, so the refinement below starts from a full (and
	// already sensible) mapping.
	sort.SliceStable(displaced, func(a, b int) bool {
		return loads[displaced[a]].Load > loads[displaced[b]].Load
	})
	for _, i := range displaced {
		dest := 0
		for pe := 1; pe < numPEs; pe++ {
			if peLoad[pe] < peLoad[dest] {
				dest = pe
			}
		}
		assign[i] = dest
		peLoad[dest] += loads[i].Load
		byPE[dest] = append(byPE[dest], i)
	}
	if total == 0 || numPEs <= 1 {
		return assign
	}
	threshold := sim.Time(float64(total) / float64(numPEs) * tolerance)

	// Donation destinations: all PEs normally, or just the arrivals
	// when an expand target set is given.
	var dests []int
	for _, pe := range g.Expand {
		if pe >= 0 && pe < numPEs {
			dests = append(dests, pe)
		}
	}
	if len(dests) == 0 {
		dests = make([]int, numPEs)
		for pe := range dests {
			dests[pe] = pe
		}
	}

	// Donate smallest ranks from overloaded PEs to the least-loaded PE
	// until every PE fits under the threshold or no move helps.
	for pe := 0; pe < numPEs; pe++ {
		// Sort this PE's ranks by increasing load so we donate the
		// cheapest state first (fewest bytes moved per unit of balance
		// gained).
		ids := byPE[pe]
		sort.SliceStable(ids, func(a, b int) bool { return loads[ids[a]].Load < loads[ids[b]].Load })
		for peLoad[pe] > threshold {
			moved := false
			for _, i := range ids {
				if assign[i] != pe || !loads[i].Migratable || loads[i].Load == 0 {
					continue
				}
				// Least-loaded destination among the candidates.
				dest := dests[0]
				for _, q := range dests[1:] {
					if peLoad[q] < peLoad[dest] {
						dest = q
					}
				}
				if dest == pe || peLoad[dest]+loads[i].Load >= peLoad[pe] {
					break
				}
				assign[i] = dest
				peLoad[pe] -= loads[i].Load
				peLoad[dest] += loads[i].Load
				moved = true
				break
			}
			if !moved {
				break
			}
		}
	}
	return assign
}

// RotateLB moves every migratable rank to the next PE; useful for
// exercising migration machinery deterministically in tests.
type RotateLB struct{}

// Name implements Strategy.
func (RotateLB) Name() string { return "RotateLB" }

// Rebalance implements Strategy.
func (RotateLB) Rebalance(loads []RankLoad, numPEs int) []int {
	assign := make([]int, len(loads))
	for i, l := range loads {
		if l.Migratable {
			assign[i] = (l.PE + 1) % numPEs
		} else {
			assign[i] = l.PE
		}
	}
	return assign
}
