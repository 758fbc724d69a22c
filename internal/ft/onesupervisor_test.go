package ft_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/ft"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

// tenCrashes is TestRepeatedCrashesExhaustRestarts's plan: one crash
// every half execution, alternating nodes, so restarted attempts are hit
// while their PE clocks are still ahead of the crash instant.
func tenCrashes(t testing.TB, cfg ampi.Config) ft.Plan {
	setup, total := probe(t, cfg)
	crashAt := setup + (total-setup)/2
	var faults []ft.Fault
	for i := 0; i < 10; i++ {
		faults = append(faults, ft.Fault{At: crashAt * sim.Time(i+1), Node: i % 2})
	}
	return ft.Plan{Faults: faults}
}

// TestRunAndRunElasticShareOneClock pins the merge: the same job and
// fault plan cost the same under both entry points. Before there was one
// loop, RunElastic advanced its fault clock by the crash instant alone
// while charging max(PE clock, crash instant) to TotalTime, and this
// plan took it 3 attempts where Run took 5.
func TestRunAndRunElasticShareOneClock(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	plan := tenCrashes(t, cfg)
	program := func() *ampi.Program {
		return synth.Checkpointed(testIters, testCompute, make([]uint64, cfg.VPs))
	}
	want, err := ft.Run(ft.Job{Config: cfg, Program: program, Plan: plan, MaxRestarts: 20})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ft.RunElastic(ft.ElasticJob{Config: cfg, Program: program, Faults: plan, MaxRestarts: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Recoveries) < 2 {
		t.Fatalf("plan recovered %d time(s); the test needs a restarted attempt to crash", len(want.Recoveries))
	}
	if got.Attempts != want.Attempts || got.TotalTime != want.TotalTime {
		t.Errorf("RunElastic: %d attempts, %v; Run: %d attempts, %v",
			got.Attempts, got.TotalTime, want.Attempts, want.TotalTime)
	}
	if !reflect.DeepEqual(got.Recoveries, want.Recoveries) {
		t.Errorf("RunElastic recoveries %+v\nRun recoveries        %+v", got.Recoveries, want.Recoveries)
	}
}

// TestCrashedEvictionIsOnTheTotalTimeClock: when a zero-notice eviction
// takes the crash path, the resize instant, the evicted node's billing
// end and the node-second horizon are all read off Report.TotalTime.
func TestCrashedEvictionIsOnTheTotalTimeClock(t *testing.T) {
	cfg := testConfig(3, 6, ampi.TargetFS, sim.Time(time.Second))
	setup, total := probe(t, cfg)
	job := elasticJob(cfg, make([]uint64, cfg.VPs))
	job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
		{Kind: ft.Eviction, At: setup + (total-setup)*3/5, Node: 1, Notice: 0},
	}}
	rep, err := ft.RunElastic(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resizes) != 1 || !rep.Resizes[0].Crashed {
		t.Fatalf("resizes = %+v, want one crashed eviction", rep.Resizes)
	}
	at := rep.Resizes[0].At
	if want := rep.TotalTime - rep.World.Time(); at != want {
		t.Errorf("resize at %v, but the attempts before the last one consumed %v", at, want)
	}
	// Two nodes for the whole run, the evicted one until the resize.
	if want := 2*rep.TotalTime + at; rep.NodeSeconds != want {
		t.Errorf("node-seconds %v, want %v (horizon %v, eviction at %v)", rep.NodeSeconds, want, rep.TotalTime, at)
	}
}

// supervised runs one job under run and returns everything the
// differential tests compare: the report, the error, the application's
// final state and the JSONL bytes of every attempt's trace.
func supervised(t *testing.T, cfg ampi.Config, plan ft.Plan, mode ft.RecoveryMode,
	run func(ft.Job) (*ft.Report, error)) (*ft.Report, error, []uint64, []byte) {
	t.Helper()
	rec := trace.NewRecorder()
	cfg.Tracer = rec
	finals := make([]uint64, cfg.VPs)
	rep, err := run(ft.Job{
		Config:      cfg,
		Program:     func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
		Plan:        plan,
		Recovery:    mode,
		MaxRestarts: 12,
	})
	var buf bytes.Buffer
	if werr := trace.WriteJSONL(&buf, rec.Events()); werr != nil {
		t.Fatal(werr)
	}
	return rep, err, finals, buf.Bytes()
}

// TestRunMatchesOracle holds the merged loop to the loop it replaced:
// over every recovery mode, both snapshot targets and a spread of
// sampled crash schedules, ft.Run and oracleRun agree on the report, the
// application's results and the trace bytes. The one intended difference
// is excluded: where the oracle gives up on a lost snapshot, Run
// cold-restarts (TestRunColdRestartsWhenSnapshotLost).
func TestRunMatchesOracle(t *testing.T) {
	compared := 0
	for _, mode := range []ft.RecoveryMode{ft.Spare, ft.Shrink, ft.Expand} {
		for _, target := range []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy} {
			cfg := testConfig(3, 6, target, 5*time.Millisecond)
			_, total := probe(t, cfg)
			for seed := uint64(1); seed <= 10; seed++ {
				plan := ft.CrashPlan(seed, cfg.Machine.Nodes, total/2, 4*total)
				name := fmt.Sprintf("%v/%v/seed%d", mode, target, seed)
				want, wantErr, wantFinals, wantTrace := supervised(t, cfg, plan, mode, ft.OracleRun)
				if errors.Is(wantErr, ampi.ErrSnapshotLost) {
					continue
				}
				got, gotErr, gotFinals, gotTrace := supervised(t, cfg, plan, mode, ft.Run)
				compared++
				if (gotErr == nil) != (wantErr == nil) {
					t.Errorf("%s: Run error %v, oracle error %v", name, gotErr, wantErr)
					continue
				}
				if got.Attempts != want.Attempts || got.TotalTime != want.TotalTime || got.Checkpoints != want.Checkpoints {
					t.Errorf("%s: Run %d attempts, %v, %d checkpoints; oracle %d, %v, %d", name,
						got.Attempts, got.TotalTime, got.Checkpoints, want.Attempts, want.TotalTime, want.Checkpoints)
				}
				if !reflect.DeepEqual(got.Recoveries, want.Recoveries) {
					t.Errorf("%s: recoveries differ\nRun    %+v\noracle %+v", name, got.Recoveries, want.Recoveries)
				}
				if !reflect.DeepEqual(gotFinals, wantFinals) {
					t.Errorf("%s: finals differ: Run %v, oracle %v", name, gotFinals, wantFinals)
				}
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Errorf("%s: traces differ (%d vs %d bytes)", name, len(gotTrace), len(wantTrace))
				}
			}
		}
	}
	if compared < 3*2*8 {
		t.Errorf("compared %d runs, want at least 8 seeds for each of 3 modes x 2 targets", compared)
	}
}

// TestCrashIsAnEvictionWithZeroNotice: losing node n at instant t costs
// the same whether it arrives as a fault or as a planned eviction whose
// notice is zero — same time-to-solution, same rework, same placement
// for the attempt that follows.
func TestCrashIsAnEvictionWithZeroNotice(t *testing.T) {
	for _, target := range []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy} {
		t.Run(fmt.Sprint(target), func(t *testing.T) {
			cfg := testConfig(3, 6, target, 5*time.Millisecond)
			setup, total := probe(t, cfg)
			at := setup + (total-setup)*3/5

			crashFinals := make([]uint64, cfg.VPs)
			crashed, err := ft.Run(ft.Job{
				Config:   cfg,
				Program:  func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, crashFinals) },
				Plan:     ft.Plan{Faults: []ft.Fault{{At: at, Node: 1}}},
				Recovery: ft.Shrink,
			})
			if err != nil {
				t.Fatal(err)
			}
			evictFinals := make([]uint64, cfg.VPs)
			job := elasticJob(cfg, evictFinals)
			job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.Eviction, At: at, Node: 1, Notice: 0}}}
			evicted, err := ft.RunElastic(job)
			if err != nil {
				t.Fatal(err)
			}
			checkFinals(t, crashFinals)
			checkFinals(t, evictFinals)
			if len(crashed.Recoveries) != 1 || len(evicted.Resizes) != 1 || !evicted.Resizes[0].Crashed {
				t.Fatalf("recoveries %+v, resizes %+v: want one crash and one crashed eviction",
					crashed.Recoveries, evicted.Resizes)
			}
			if evicted.TotalTime != crashed.TotalTime || evicted.Attempts != crashed.Attempts {
				t.Errorf("eviction: %d attempts, %v; crash: %d attempts, %v",
					evicted.Attempts, evicted.TotalTime, crashed.Attempts, crashed.TotalTime)
			}
			if got, want := evicted.Resizes[0].Rework, crashed.Recoveries[0].Rework; got != want {
				t.Errorf("eviction rework %v, crash rework %v", got, want)
			}
			if got, want := evicted.World.Cfg.Placement, crashed.World.Cfg.Placement; !reflect.DeepEqual(got, want) || len(want) != cfg.VPs {
				t.Errorf("eviction restarted on placement %v, crash on %v", got, want)
			}
		})
	}
}

// TestRunColdRestartsWhenSnapshotLost: two crashes inside one checkpoint
// interval shrink a three-node buddy job onto one node, and the only
// snapshot in hand kept a rank's copies on the two nodes that left.
// Run restarts the job from the beginning on the machine it has — the
// elastic loop's rule — instead of returning ErrSnapshotLost.
func TestRunColdRestartsWhenSnapshotLost(t *testing.T) {
	cfg := testConfig(3, 6, ampi.TargetBuddy, 5*time.Millisecond)
	setup, total := probe(t, cfg)
	first := setup + (total-setup)*3/5
	job := ft.Job{
		Config: cfg,
		// The second crash lands while the restarted attempt is still
		// setting up, before it can take a snapshot of its own.
		Plan: ft.Plan{Faults: []ft.Fault{
			{At: first, Node: 1},
			{At: first + setup/2, Node: 0},
		}},
		Recovery: ft.Shrink,
	}
	finals := make([]uint64, cfg.VPs)
	job.Program = func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) }
	if _, err := ft.OracleRun(job); !errors.Is(err, ampi.ErrSnapshotLost) {
		t.Fatalf("the old loop returned %v; the plan was meant to lose the snapshot", err)
	}
	finals = make([]uint64, cfg.VPs)
	rep, err := ft.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(t, finals)
	if rep.Attempts != 4 || len(rep.Recoveries) != 2 {
		t.Errorf("%d attempts, %d recoveries; want crash, crash, lost snapshot, cold run", rep.Attempts, len(rep.Recoveries))
	}
	if got := len(rep.World.Cluster.Nodes); got != 1 {
		t.Errorf("cold restart ran on %d nodes, want the one survivor", got)
	}
	if rep.World.RestoredBytes != 0 {
		t.Errorf("cold restart restored %d bytes", rep.World.RestoredBytes)
	}
}
