package ampi_test

import (
	"errors"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

func elasticConfig(vps int) ampi.Config {
	return ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2},
		VPs:       vps,
		Privatize: core.KindPIEglobals,
		Checkpoint: &ampi.CheckpointPolicy{
			Target:   ampi.TargetFS,
			Dir:      "/scratch/elastic",
			Interval: 5 * sim.Time(time.Millisecond),
		},
	}
}

func TestScheduleReconfigureDrainsThroughCheckpoint(t *testing.T) {
	finals := make([]uint64, 4)
	prog := synth.Checkpointed(64, 2*sim.Time(time.Millisecond), finals)
	w, err := ampi.NewWorld(elasticConfig(4), prog)
	if err != nil {
		t.Fatal(err)
	}
	reqAt := 20 * sim.Time(time.Millisecond)
	if err := w.ScheduleReconfigure(reqAt); err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	var rc *ampi.Reconfigure
	if !errors.As(err, &rc) {
		t.Fatalf("Run returned %v, want *Reconfigure", err)
	}
	ck := w.LastCheckpoint()
	if ck == nil {
		t.Fatal("drain left no checkpoint")
	}
	if ck.Taken != rc.At {
		t.Errorf("drain stopped at %v but snapshot completed at %v", rc.At, ck.Taken)
	}
	if ck.Taken < reqAt {
		t.Errorf("drain snapshot at %v predates the request at %v", ck.Taken, reqAt)
	}
	// The ranks did not finish — the drain interrupted them.
	for vp, acc := range finals {
		if acc != 0 {
			t.Errorf("rank %d finished (acc %d) despite the drain", vp, acc)
		}
	}

	// Restarting from the drain snapshot completes the job with every
	// accumulator intact: no work was lost and none double-counted.
	finals2 := make([]uint64, 4)
	w2, err := ampi.NewWorldFromCheckpoint(elasticConfig(4), synth.Checkpointed(64, 2*sim.Time(time.Millisecond), finals2), ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Run(); err != nil {
		t.Fatal(err)
	}
	for vp, acc := range finals2 {
		if want := synth.CheckpointedAcc(64, vp); acc != want {
			t.Errorf("restarted rank %d acc %d, want %d", vp, acc, want)
		}
	}
}

func TestScheduleReconfigureForcesUndueCheckpoint(t *testing.T) {
	// With a huge policy interval no ordinary snapshot would ever be
	// due; the drain must force one anyway.
	finals := make([]uint64, 4)
	cfg := elasticConfig(4)
	cfg.Checkpoint.Interval = sim.Time(time.Hour)
	w, err := ampi.NewWorld(cfg, synth.Checkpointed(32, sim.Time(time.Millisecond), finals))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleReconfigure(10 * sim.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	var rc *ampi.Reconfigure
	if !errors.As(err, &rc) {
		t.Fatalf("Run returned %v, want *Reconfigure", err)
	}
	if w.LastCheckpoint() == nil {
		t.Fatal("forced drain took no snapshot")
	}
	if w.Checkpoints != 1 {
		t.Errorf("Checkpoints = %d, want exactly the drain snapshot", w.Checkpoints)
	}
}

func TestScheduleReconfigureNeedsPolicy(t *testing.T) {
	cfg := elasticConfig(4)
	cfg.Checkpoint = nil
	w, err := ampi.NewWorld(cfg, synth.Checkpointed(4, sim.Time(time.Millisecond), make([]uint64, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleReconfigure(sim.Time(time.Millisecond)); err == nil {
		t.Fatal("ScheduleReconfigure accepted a world with no checkpoint policy")
	}
}

func TestDrainEmitsDrainSpan(t *testing.T) {
	rec := trace.NewRecorder()
	finals := make([]uint64, 4)
	cfg := elasticConfig(4)
	cfg.Tracer = rec
	w, err := ampi.NewWorld(cfg, synth.Checkpointed(64, 2*sim.Time(time.Millisecond), finals))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ScheduleReconfigure(20 * sim.Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var rc *ampi.Reconfigure
	if err := w.Run(); !errors.As(err, &rc) {
		t.Fatalf("Run returned %v, want *Reconfigure", err)
	}
	drains := 0
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KindDrain {
			drains++
			if ev.Time+ev.Dur != rc.At {
				t.Errorf("drain span ends at %v, world stopped at %v", ev.Time+ev.Dur, rc.At)
			}
			if ev.Aux != int32(ampi.TargetFS) {
				t.Errorf("drain span target = %d, want fs", ev.Aux)
			}
		}
	}
	if drains != 1 {
		t.Errorf("%d drain spans, want 1", drains)
	}
}

// TestRaceWithNodeFailure pins the notice-too-short degradation: when
// the node dies before the next consistency point, the world fails
// with *NodeFailure, not *Reconfigure.
func TestReconfigureRaceWithNodeFailure(t *testing.T) {
	finals := make([]uint64, 4)
	w, err := ampi.NewWorld(elasticConfig(4), synth.Checkpointed(64, 2*sim.Time(time.Millisecond), finals))
	if err != nil {
		t.Fatal(err)
	}
	notice := 20 * sim.Time(time.Millisecond)
	if err := w.ScheduleReconfigure(notice); err != nil {
		t.Fatal(err)
	}
	// The node leaves almost immediately after the notice: no
	// consistency point fits in the window.
	if err := w.ScheduleNodeFailure(1, notice+sim.Time(time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	err = w.Run()
	var nf *ampi.NodeFailure
	if !errors.As(err, &nf) {
		t.Fatalf("Run returned %v, want *NodeFailure (notice too short to drain)", err)
	}
}
