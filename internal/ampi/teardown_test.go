package ampi

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/ult"
)

// TestRunLeavesNoRankThread ends a run each way that strands parked ranks
// — a rank panic, a deadlock, a node crash, a drain — and checks that Run
// unwinds them all (deferred functions run, every thread Done, goroutine
// count back to what it was before the world existed) while returning
// exactly the error, and leaving exactly the thread.Err, it did before
// Run reaped anything.
func TestRunLeavesNoRankThread(t *testing.T) {
	ms := sim.Time(time.Millisecond)
	image := elf.NewBuilder("teardown").TaggedGlobal("iter", 0).Func("main", 1024).MustBuild()
	iterate := func(r *Rank) {
		for i := 0; i < 1000; i++ {
			r.Compute(ms)
			r.CheckpointIfDue()
		}
		r.Barrier()
	}
	cases := []struct {
		name    string
		main    func(r *Rank)
		arm     func(w *World) error
		wantErr string
		// died is thread.Err of the ranks that were dead before Run
		// reaped the rest; they keep what they died of.
		died map[int]string
	}{
		{
			name: "rank panic",
			main: func(r *Rank) {
				if r.Rank() == 1 {
					panic("boom")
				}
				r.Wait(r.Irecv(1, 0, nil))
			},
			wantErr: "ult: thread 1 panicked: boom",
			died:    map[int]string{1: "ult: thread 1 panicked: boom"},
		},
		{
			name:    "deadlock",
			main:    func(r *Rank) { r.Wait(r.Irecv((r.Rank()+1)%r.Size(), 0, nil)) },
			wantErr: "ampi: sim: event queue empty before completion (deadlock) (rank states: map[blocked:4])",
		},
		{
			name:    "node crash",
			main:    iterate,
			arm:     func(w *World) error { return w.ScheduleNodeFailure(1, w.SetupDone+20*ms) },
			wantErr: "ampi: node failed: node 1 died at 115.12135ms, killing 2 rank(s); restart from the last checkpoint",
			died: map[int]string{
				2: "ult: thread 2 killed: node 1 failed at 115.12135ms",
				3: "ult: thread 3 killed: node 1 failed at 115.12135ms",
			},
		},
		{
			name:    "drain",
			main:    iterate,
			arm:     func(w *World) error { return w.ScheduleReconfigure(w.SetupDone + 20*ms) },
			wantErr: "ampi: world drained for reconfiguration at 116.222327ms; restart from the drain checkpoint",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			unwound := 0
			cfg := Config{
				Machine:    machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
				VPs:        4,
				Privatize:  core.KindPIEglobals,
				Checkpoint: &CheckpointPolicy{Target: TargetFS, Dir: "/scratch/teardown", Interval: 5 * ms},
			}
			w, err := NewWorld(cfg, &Program{Image: image, Main: func(r *Rank) {
				defer func() { unwound++ }()
				tc.main(r)
			}})
			if err != nil {
				t.Fatal(err)
			}
			if tc.arm != nil {
				if err := tc.arm(w); err != nil {
					t.Fatal(err)
				}
			}
			err = w.Run()
			if err == nil || err.Error() != tc.wantErr {
				t.Errorf("Run returned %q, want %q", err, tc.wantErr)
			}
			for vp, r := range w.Ranks {
				if r.thread.State() != ult.Done {
					t.Errorf("rank %d left %v", vp, r.thread.State())
				}
				want, ok := tc.died[vp]
				if !ok {
					want = fmt.Sprintf("ult: thread %d killed: world stopped", vp)
				}
				if got := r.thread.Err; got == nil || got.Error() != want {
					t.Errorf("rank %d thread.Err = %q, want %q", vp, got, want)
				}
			}
			if unwound != len(w.Ranks) {
				t.Errorf("%d of %d rank bodies unwound", unwound, len(w.Ranks))
			}
			// Fewer is not a leak: the previous subtest's own goroutine
			// may still have been exiting when before was sampled.
			if after := runtime.NumGoroutine(); after > before {
				t.Errorf("%d goroutines before the world, %d after Run", before, after)
			}
		})
	}
}
