package scenario_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

// wantNoNewGoroutines runs f and fails if it leaves more goroutines than
// it found: every world f built, however it ended, must have taken its
// rank threads with it.
func wantNoNewGoroutines(t *testing.T, f func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	f()
	// Fewer is not a leak: the previous subtest's own goroutine may
	// still have been exiting when before was sampled.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before, %d after", before, after)
	}
}

// Worlds that crash, drain, or deadlock are abandoned by their callers
// with ranks still parked; none of the three ways to run a point may
// leave those ranks' threads behind (ROADMAP item 4a).
func TestAbandonedWorldsLeaveNoGoroutines(t *testing.T) {
	t.Run("ft.Run node crash", func(t *testing.T) {
		sp := elasticSpec() // for its machine and checkpoint policy
		sp.Churn = nil
		cfg, err := sp.Config()
		if err != nil {
			t.Fatal(err)
		}
		const iters, compute = 8, 2 * time.Millisecond
		program := func() *ampi.Program {
			return synth.Checkpointed(iters, compute, make([]uint64, cfg.VPs))
		}
		// A fault-free run sizes the crash: three fifths of the way
		// through execution, after the first checkpoints.
		probe, err := ampi.NewWorld(cfg, program())
		if err != nil {
			t.Fatal(err)
		}
		if err := probe.Run(); err != nil {
			t.Fatal(err)
		}
		crashAt := probe.SetupDone + probe.ExecutionTime()*3/5
		wantNoNewGoroutines(t, func() {
			rep, err := ft.Run(ft.Job{
				Config:   cfg,
				Program:  program,
				Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 1}}},
				Recovery: ft.Spare,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Recoveries) != 1 {
				t.Fatalf("%d recoveries, want the one injected crash", len(rep.Recoveries))
			}
		})
	})

	t.Run("RunElastic drained eviction", func(t *testing.T) {
		wantNoNewGoroutines(t, func() {
			sp := elasticSpec()
			rep, _, err := sp.RunElastic()
			if err != nil {
				t.Fatal(err)
			}
			drained := 0
			for _, rz := range rep.Resizes {
				if rz.Drained {
					drained++
				}
			}
			if drained == 0 {
				t.Fatalf("no drained resize among %d", len(rep.Resizes))
			}
		})
	})

	t.Run("Execute deadlock", func(t *testing.T) {
		wantNoNewGoroutines(t, func() {
			sp := scenario.Spec{
				Machine: shape(1, 1, 2),
				VPs:     4,
				Method:  core.KindTLSglobals,
				Program: &ampi.Program{
					Image: synth.EmptyImage(),
					Main:  func(r *ampi.Rank) { r.Wait(r.Irecv((r.Rank()+1)%r.Size(), 0, nil)) },
				},
			}
			_, _, err := sp.Execute()
			if !errors.Is(err, sim.ErrStalled) {
				t.Fatalf("Execute returned %v, want a deadlock", err)
			}
		})
	})
}
