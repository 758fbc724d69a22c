// ADCIRC storm-surge surrogate with dynamic load balancing (§4.6).
//
// The computationally intensive region follows the flood front as it
// spreads across the coastal grid, so static decompositions go out of
// balance. The example runs the same storm three ways on 8 PEs:
//
//  1. baseline: one rank per PE, no balancing;
//  2. overdecomposed 8x, no balancing (latency hiding only);
//  3. overdecomposed 8x with GreedyRefineLB migrating ranks under
//     PIEglobals.
//
// Run with: go run ./examples/adcirc [-quick]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
)

func main() {
	quick := flag.Bool("quick", false, "reduced problem size (smoke runs)")
	flag.Parse()

	cfg := adcirc.DefaultConfig()
	if *quick {
		cfg.Width, cfg.Height, cfg.Steps, cfg.LBPeriod = 96, 128, 8, 4
	}
	const pes = 8

	type variant struct {
		name     string
		vps      int
		balancer lb.Strategy
	}
	variants := []variant{
		{"baseline (1 rank/PE, no LB)", pes, nil},
		{"8x virtualization, no LB", pes * 8, nil},
		{"8x virtualization + GreedyRefineLB", pes * 8, lb.GreedyRefineLB{}},
	}

	tbl := trace.NewTable(
		fmt.Sprintf("ADCIRC surrogate: %dx%d grid, %d steps, %d PEs, PIEglobals",
			cfg.Width, cfg.Height, cfg.Steps, pes),
		"Configuration", "Execution", "Migrations", "Moved", "Speedup")
	var baseline float64
	for _, v := range variants {
		run := cfg
		if v.balancer == nil {
			run.LBPeriod = 0
		}
		var volume uint64
		sp := scenario.Spec{
			Machine:  machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
			VPs:      v.vps,
			Method:   core.KindPIEglobals,
			Program:  adcirc.New(run, func(r adcirc.Result) { volume += r.WetCellSteps }),
			Balancer: v.balancer,
		}
		row, _, err := sp.Execute()
		if err != nil {
			log.Fatalf("adcirc: %v", err)
		}
		if oracle := adcirc.TotalWetCellSteps(run); volume != oracle {
			log.Fatalf("adcirc: volume %d != oracle %d — decomposition bug", volume, oracle)
		}
		exec := time.Duration(row.ExecNs)
		secs := exec.Seconds()
		if baseline == 0 {
			baseline = secs
		}
		tbl.AddRow(
			v.name,
			trace.FormatDuration(exec),
			fmt.Sprint(row.Migrations),
			trace.FormatBytes(int64(row.MigratedBytes)),
			fmt.Sprintf("%+.0f%%", (baseline/secs-1)*100),
		)
	}
	fmt.Println(tbl)
	fmt.Println("Every configuration computes the same total wet-cell work;")
	fmt.Println("migration lets the runtime chase the storm across the PEs.")
}
