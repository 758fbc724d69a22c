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

// TestImbalanceTriggerSkipsBalancedLoad: with perfectly balanced
// ranks, the adaptive trigger skips every balancing step; with skewed
// ranks it fires.
func TestImbalanceTriggerSkipsBalancedLoad(t *testing.T) {
	run := func(loads []sim.Time) *ampi.World {
		prog := &ampi.Program{
			Image: synth.EmptyImage(),
			Main: func(r *ampi.Rank) {
				for round := 0; round < 3; round++ {
					r.Compute(loads[r.Rank()%len(loads)])
					r.Migrate()
				}
			},
		}
		w, err := ampi.NewWorld(ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:       4,
			Privatize: core.KindPIEglobals,
			Balancer:  lb.GreedyLB{},
			Trigger:   lb.ImbalanceTrigger{Threshold: 1.2},
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	balanced := run([]sim.Time{1e6, 1e6, 1e6, 1e6})
	if balanced.Migrations != 0 {
		t.Errorf("balanced run migrated %d times", balanced.Migrations)
	}
	if balanced.SkippedBalances != 3 {
		t.Errorf("balanced run skipped %d of 3 balance points", balanced.SkippedBalances)
	}

	// Skew across PEs: ranks 0-1 (PE 0) heavy, ranks 2-3 (PE 1) light.
	skewed := run([]sim.Time{10e6, 10e6, 1e6, 1e6})
	if skewed.Migrations == 0 {
		t.Error("skewed run never migrated despite trigger")
	}
}

// API misuse must fail loudly inside the rank body and surface as a
// run error rather than hanging.
func TestAPIMisusePanicsSurface(t *testing.T) {
	cases := map[string]func(r *ampi.Rank){
		"negative tag":  func(r *ampi.Rank) { r.Send(0, -5, nil, 0) },
		"bad peer":      func(r *ampi.Rank) { r.Send(99, 1, nil, 0) },
		"wildcard send": func(r *ampi.Rank) { r.Send(0, ampi.AnyTag, nil, 0) },
		"foreign wait":  func(r *ampi.Rank) { r.Wait(&ampi.Request{}) },
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			prog := &ampi.Program{Image: synth.EmptyImage(), Main: body}
			w, err := ampi.NewWorld(smallConfig(2, core.KindNone), prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err == nil {
				t.Fatal("misuse did not surface as an error")
			}
		})
	}
}
