package ampi_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

// TestMigrationTrafficStress interleaves heavy random point-to-point
// traffic with repeated migrations under several balancers; every
// message must arrive intact and the run must terminate.
func TestMigrationTrafficStress(t *testing.T) {
	const (
		v      = 12
		rounds = 8
	)
	for _, strat := range []lb.Strategy{lb.RotateLB{}, lb.GreedyRefineLB{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			rng := sim.NewRNG(99)
			// Precompute a deterministic traffic pattern: per round,
			// each rank sends to a pseudo-random peer.
			peers := make([][]int, rounds)
			for rd := range peers {
				peers[rd] = make([]int, v)
				for i := range peers[rd] {
					p := rng.Intn(v - 1)
					if p >= i {
						p++
					}
					peers[rd][i] = p
				}
			}
			sums := make([]float64, v)
			prog := &ampi.Program{
				Image: synth.EmptyImage(),
				Main: func(r *ampi.Rank) {
					me := r.Rank()
					for rd := 0; rd < rounds; rd++ {
						// Post receives for everything destined to me
						// this round.
						var reqs []*ampi.Request
						for src, dst := range peers[rd] {
							if dst == me {
								reqs = append(reqs, r.Irecv(src, rd, make([]float64, 1)))
							}
						}
						r.Send(peers[rd][me], rd, []float64{float64(me*1000 + rd)}, 0)
						for _, q := range reqs {
							sums[me] += r.Wait(q)[0]
						}
						r.Compute(sim.Time((me%3 + 1)) * 10_000)
						r.Migrate()
					}
					r.Barrier()
				},
			}
			cfg := ampi.Config{
				Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
				VPs:       v,
				Privatize: core.KindPIEglobals,
				Balancer:  strat,
			}
			w := runProgram(t, cfg, prog)
			var total float64
			for _, s := range sums {
				total += s
			}
			var want float64
			for rd := 0; rd < rounds; rd++ {
				for src := range peers[rd] {
					want += float64(src*1000 + rd)
				}
			}
			if total != want {
				t.Fatalf("message payloads lost: sum %v, want %v", total, want)
			}
			if strat.Name() == "RotateLB" && w.Migrations == 0 {
				t.Error("rotate balancer never migrated")
			}
		})
	}
}
