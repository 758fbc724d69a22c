package ft_test

import (
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/ft"
	"provirt/internal/workloads/synth"
)

// Recovery-path benchmarks: one mid-run node crash, supervised restart
// from the last snapshot. The FS variant restores through the shared
// filesystem; the buddy variant restores from the surviving in-memory
// copies over the network.

func benchRecovery(b *testing.B, target ampi.CheckpointTarget, recovery ft.RecoveryMode) {
	cfg := testConfig(2, 4, target, 5*time.Millisecond)
	setup, total := probe(b, cfg)
	crashAt := setup + (total-setup)*3/5
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finals := make([]uint64, cfg.VPs)
		rep, err := ft.Run(ft.Job{
			Config:   cfg,
			Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
			Plan:     ft.Plan{Faults: []ft.Fault{{At: crashAt, Node: 1}}},
			Recovery: recovery,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Attempts != 2 {
			b.Fatalf("attempts = %d, want 2", rep.Attempts)
		}
	}
}

func BenchmarkRecoverySpareFS(b *testing.B)    { benchRecovery(b, ampi.TargetFS, ft.Spare) }
func BenchmarkRecoverySpareBuddy(b *testing.B) { benchRecovery(b, ampi.TargetBuddy, ft.Spare) }
func BenchmarkRecoveryShrinkBuddy(b *testing.B) {
	benchRecovery(b, ampi.TargetBuddy, ft.Shrink)
}

func BenchmarkFaultFreeSupervised(b *testing.B) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finals := make([]uint64, cfg.VPs)
		_, err := ft.Run(ft.Job{
			Config:  cfg,
			Program: func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Elastic-path benchmark: the expand+evict storm. The supervisor
// drains the job onto an arriving node mid-run, then drains a noticed
// spot eviction — two full drain/reshape/restart cycles with placement
// remaps and snapshot restores, the hot loop of every elastic sweep
// point.
func BenchmarkElasticExpandEvictStorm(b *testing.B) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(b, cfg)
	span := total - setup
	plan := ft.ChurnPlan{Events: []ft.ChurnEvent{
		{Kind: ft.Arrival, At: setup + span/4, Count: 1},
		{Kind: ft.Eviction, At: setup + span/2, Node: 1, Notice: 4 * total},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finals := make([]uint64, cfg.VPs)
		rep, err := ft.RunElastic(ft.ElasticJob{
			Config:  cfg,
			Program: func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
			Churn:   plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Epochs() != 2 {
			b.Fatalf("epochs = %d, want 2", rep.Epochs())
		}
		if got := rep.ReworkNoticed(); got != 0 {
			b.Fatalf("noticed rework = %v, want 0", got)
		}
	}
}
