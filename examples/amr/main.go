// Adaptive mesh refinement under virtualization: the "increase
// resolution only where needed" workload the paper's introduction
// motivates.
//
// A shock front sweeps a block-structured mesh; blocks near the front
// refine up to 3 levels (64x the coarse work). Because each rank owns
// a spatially contiguous tile, refinement concentrates load on
// whichever ranks the front is crossing — and the periodic regrid step
// (AMPI_Migrate + GreedyRefineLB under PIEglobals) chases it.
//
// Run with: go run ./examples/amr [-quick]
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
	"provirt/internal/workloads/amr"
)

func main() {
	quick := flag.Bool("quick", false, "reduced problem size (smoke runs)")
	flag.Parse()

	cfg := amr.DefaultConfig()
	if *quick {
		cfg.BlocksX, cfg.BlocksY, cfg.Steps, cfg.RegridEvery = 8, 8, 8, 4
	}
	const pes = 8

	fmt.Printf("AMR: %dx%d blocks, %d cells/block-edge, %d refinement levels, %d steps\n",
		cfg.BlocksX, cfg.BlocksY, cfg.BlockCells, cfg.MaxLevel, cfg.Steps)
	fmt.Printf("oracle fine-cell updates: %d\n\n", amr.TotalCellUpdates(cfg))

	tbl := trace.NewTable("8 PEs, PIEglobals",
		"Configuration", "Execution", "Migrations", "Speedup")
	var baseline float64
	for _, v := range []struct {
		name     string
		vps      int
		regrid   bool
		balancer lb.Strategy
	}{
		{"static, 1 rank/PE", pes, false, nil},
		{"4x virtualization, no regrid LB", pes * 4, false, nil},
		{"4x virtualization + regrid LB", pes * 4, true, lb.GreedyRefineLB{}},
	} {
		run := cfg
		if !v.regrid {
			run.RegridEvery = 0
		}
		var updates uint64
		sp := scenario.Spec{
			Machine:  machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
			VPs:      v.vps,
			Method:   core.KindPIEglobals,
			Program:  amr.New(run, func(r amr.Result) { updates += r.CellUpdates }),
			Balancer: v.balancer,
		}
		row, _, err := sp.Execute()
		if err != nil {
			log.Fatalf("amr: %v", err)
		}
		if updates != amr.TotalCellUpdates(run) {
			log.Fatalf("amr: work accounting broken: %d", updates)
		}
		exec := time.Duration(row.ExecNs)
		secs := exec.Seconds()
		if baseline == 0 {
			baseline = secs
		}
		tbl.AddRow(v.name, trace.FormatDuration(exec),
			fmt.Sprint(row.Migrations), fmt.Sprintf("%+.0f%%", (baseline/secs-1)*100))
	}
	fmt.Println(tbl)
	fmt.Println("Refinement follows the front; rank migration follows the refinement.")
}
