// Migration walkthrough: what PIEglobals actually moves, and how the
// pieglobalsfind debugging facility translates privatized addresses.
//
// A single rank with a 14 MB (ADCIRC-sized) code segment and a user
// heap is migrated across nodes under TLSglobals and PIEglobals; the
// example prints each payload's composition and timing (the Fig. 8
// asymmetry), then demonstrates pieglobalsfind on a privatized function
// address. Finally, a non-migratable method is paired with a load
// balancer to show scenario.Spec rejecting the combination up front,
// before any world is built.
//
// Run with: go run ./examples/migration [-quick]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
)

func main() {
	quick := flag.Bool("quick", false, "reduced user-heap size (smoke runs)")
	flag.Parse()
	userHeap := uint64(8 << 20) // 8 MiB of application state
	if *quick {
		userHeap = 1 << 20
	}

	fmt.Printf("Migrating one rank (ADCIRC-sized binary, %s user heap) across nodes:\n",
		trace.FormatBytes(int64(userHeap)))
	fmt.Println()
	tbl := trace.NewTable("", "Method", "Payload", "Migration time", "Notes")
	for _, kind := range []core.Kind{core.KindTLSglobals, core.KindPIEglobals} {
		row := migrateOnce(kind, userHeap)
		note := "stack + heap + TLS block"
		if kind == core.KindPIEglobals {
			note = "stack + heap + TLS + code & data segments"
		}
		tbl.AddRow(kind.String(), trace.FormatBytes(int64(row.LastMigrationBytes)),
			trace.FormatDuration(time.Duration(row.LastMigrationNs)), note)
	}
	fmt.Println(tbl)

	demoPieglobalsFind()

	fmt.Println("\nNon-migratable methods refuse up front, at Spec validation:")
	bad := scenario.Spec{
		Machine: machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:     1,
		Method:  core.KindPIPglobals,
		Program: &ampi.Program{
			Image: adcirc.Image(),
			Main:  func(r *ampi.Rank) { r.Migrate() },
		},
		Balancer: lb.RotateLB{},
	}
	if err := bad.Validate(); err != nil {
		fmt.Printf("  %v\n", err)
	} else {
		log.Fatal("migration: expected PIPglobals + balancer to fail validation")
	}
}

// migrateOnce runs one rank with userHeap bytes of application state
// on a two-node machine, which the rotate balancer moves once: the
// ballast workload, as the document a client would POST.
func migrateOnce(kind core.Kind, userHeap uint64) scenario.Row {
	doc := fmt.Sprintf(`{"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"vps":1,"method":%q,`+
		`"workload":"ballast","workload_params":{"heap_bytes":%d},"balancer":"rotate"}`, kind, userHeap)
	var sp scenario.Spec
	if err := json.Unmarshal([]byte(doc), &sp); err != nil {
		log.Fatalf("migration: %v", err)
	}
	row, _, err := sp.Execute()
	if err != nil {
		log.Fatalf("migration: %v", err)
	}
	if row.Migrations != 1 {
		log.Fatalf("migration: %d migrations", row.Migrations)
	}
	return row
}

func demoPieglobalsFind() {
	fmt.Println("pieglobalsfind: translating a privatized address for the debugger:")
	sp := scenario.Spec{
		Machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:     1,
		Method:  core.KindPIEglobals,
		Program: &ampi.Program{
			Image: adcirc.Image(),
			Main: func(r *ampi.Rank) {
				ctx := r.Ctx()
				addr, err := ctx.FuncAddr("momentum_solve")
				if err != nil {
					panic(err)
				}
				res, err := core.PieglobalsFind(ctx, addr+0x42)
				if err != nil {
					panic(err)
				}
				fmt.Printf("  privatized %#x -> original %#x  (%s+%#x in %s segment)\n",
					addr+0x42, res.Original, res.Symbol, res.Offset, res.Segment)
			},
		},
	}
	if _, _, err := sp.Execute(); err != nil {
		log.Fatalf("migration: %v", err)
	}
}
