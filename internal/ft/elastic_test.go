package ft_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/ft"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

// A crash recovers onto a spare only: Run refuses any other recovery
// mode before it starts a world, rather than running as Spare.
func TestRunRefusesRecoveryOtherThanSpare(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	started := false
	rep, err := ft.Run(ft.Job{
		Config: cfg,
		Program: func() *ampi.Program {
			started = true
			return synth.Checkpointed(testIters, testCompute, make([]uint64, cfg.VPs))
		},
		Recovery: ft.Spare + 1,
	})
	if err == nil || !strings.Contains(err.Error(), "spare") {
		t.Fatalf("Run with recovery mode 1: %v, want a refusal naming the spare", err)
	}
	if rep != nil || started {
		t.Errorf("refused job still ran: report %+v, program built %v", rep, started)
	}
}

func TestChurnSpecCompileDeterministicAndSeedSensitive(t *testing.T) {
	spec := ft.ChurnSpec{
		Seed:          11,
		ArrivalEvery:  200 * sim.Time(time.Millisecond),
		EvictionEvery: 300 * sim.Time(time.Millisecond),
		Notice:        10 * sim.Time(time.Millisecond),
		Horizon:       2 * sim.Time(time.Second),
	}
	a := spec.Compile(4)
	b := spec.Compile(4)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Error("same spec compiled to different plans")
	}
	if len(a.Events) == 0 {
		t.Fatal("busy spec compiled to an empty plan")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("compiled plan invalid: %v", err)
	}
	spec.Seed = 12
	if fmt.Sprintf("%+v", spec.Compile(4).Events) == fmt.Sprintf("%+v", a.Events) {
		t.Error("different seeds compiled to identical plans")
	}
	// Disabling one process must not reshuffle the other: the eviction
	// sub-stream is forked independently of the arrival stream.
	evOnly := ft.ChurnSpec{Seed: 11, EvictionEvery: spec.EvictionEvery, Notice: spec.Notice, Horizon: spec.Horizon}.Compile(4)
	var fromBoth []ft.ChurnEvent
	for _, ev := range a.Events {
		if ev.Kind == ft.Eviction {
			fromBoth = append(fromBoth, ev)
		}
	}
	if fmt.Sprintf("%+v", evOnly.Events) != fmt.Sprintf("%+v", fromBoth) {
		t.Error("disabling arrivals reshuffled the eviction stream")
	}
	if got := (ft.ChurnSpec{}).Compile(4); len(got.Events) != 0 {
		t.Error("empty spec compiled to events")
	}
}

func TestChurnSpecRollingAndTruncation(t *testing.T) {
	roll := ft.ChurnSpec{
		RollingEvery: 50 * sim.Time(time.Millisecond),
		Notice:       5 * sim.Time(time.Millisecond),
		Horizon:      sim.Time(time.Second),
	}.Compile(3)
	if len(roll.Events) != 6 {
		t.Fatalf("rolling walk over 3 nodes compiled %d events, want 6", len(roll.Events))
	}
	for i := 0; i < 3; i++ {
		ev, ar := roll.Events[2*i], roll.Events[2*i+1]
		if ev.Kind != ft.Eviction || ev.Node != i || ev.Notice != 5*sim.Time(time.Millisecond) {
			t.Errorf("rolling step %d eviction = %+v", i, ev)
		}
		if ar.Kind != ft.Arrival || ar.At != ev.At {
			t.Errorf("rolling step %d replacement = %+v, want arrival at %v", i, ar, ev.At)
		}
	}
	tight := ft.ChurnSpec{
		EvictionEvery: sim.Time(time.Millisecond),
		Horizon:       sim.Time(time.Second),
		MaxEvents:     5,
	}.Compile(4)
	if len(tight.Events) != 5 {
		t.Errorf("MaxEvents=5 kept %d events", len(tight.Events))
	}
}

func TestChurnPlanValidate(t *testing.T) {
	ms := sim.Time(time.Millisecond)
	cases := []struct {
		name string
		plan ft.ChurnPlan
		ok   bool
	}{
		{"empty", ft.ChurnPlan{}, true},
		{"ordered", ft.ChurnPlan{Events: []ft.ChurnEvent{
			{Kind: ft.Arrival, At: ms, Count: 1},
			{Kind: ft.Eviction, At: 2 * ms},
		}}, true},
		{"out of order", ft.ChurnPlan{Events: []ft.ChurnEvent{
			{Kind: ft.Arrival, At: 2 * ms, Count: 1},
			{Kind: ft.Eviction, At: ms},
		}}, false},
		{"zero-count arrival", ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.Arrival, At: ms}}}, false},
		{"negative notice", ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.Eviction, At: ms, Notice: -1}}}, false},
		{"unknown kind", ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.ChurnKind(9), At: ms}}}, false},
	}
	for _, tc := range cases {
		err := tc.plan.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed", tc.name)
		}
	}
}

// elasticJob builds the standard elastic test job: a checkpointed
// program on the given machine, churn supplied by the caller.
func elasticJob(cfg ampi.Config, finals []uint64) ft.ElasticJob {
	return ft.ElasticJob{
		Config:  cfg,
		Program: func() *ampi.Program { return synth.Checkpointed(testIters, testCompute, finals) },
	}
}

// TestElasticNoticedEvictionDrains pins the headline property: an
// eviction whose notice spans a consistency point costs zero rework —
// the job drains through a checkpoint, vacates the node, and resumes
// on the survivors without losing a tick of work.
func TestElasticNoticedEvictionDrains(t *testing.T) {
	for _, target := range []ampi.CheckpointTarget{ampi.TargetFS, ampi.TargetBuddy} {
		t.Run(fmt.Sprint(target), func(t *testing.T) {
			cfg := testConfig(3, 6, target, 5*time.Millisecond)
			setup, total := probe(t, cfg)

			finals := make([]uint64, cfg.VPs)
			job := elasticJob(cfg, finals)
			job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
				{Kind: ft.Eviction, At: setup + (total-setup)/2, Node: 1, Notice: total},
			}}
			rep, err := ft.RunElastic(job)
			if err != nil {
				t.Fatal(err)
			}
			checkFinals(t, finals)
			if rep.Attempts != 2 {
				t.Fatalf("attempts = %d, want 2 (drain + resumed run)", rep.Attempts)
			}
			if rep.Epochs() != 1 {
				t.Fatalf("epochs = %d, want 1", rep.Epochs())
			}
			rz := rep.Resizes[0]
			if !rz.Drained || rz.Crashed {
				t.Errorf("noticed eviction resize = %+v, want Drained", rz)
			}
			if rz.Rework != 0 || rep.ReworkNoticed() != 0 {
				t.Errorf("noticed eviction lost work: %v", rz.Rework)
			}
			if rz.Kind != ft.Eviction || rz.Delta != -1 || rz.Nodes != 2 {
				t.Errorf("resize shape = %+v, want one node gone (2 left)", rz)
			}
			if got := len(rep.World.Cluster.Nodes); got != 2 {
				t.Errorf("job ended on %d nodes, want 2", got)
			}
			if rep.TotalTime <= total {
				t.Errorf("eviction mid-run should stretch time-to-solution past %v, got %v", total, rep.TotalTime)
			}
		})
	}
}

// TestElasticEvictionNoticeTooShortCrashes pins the degradation: a
// notice too short to reach the next consistency point turns the
// eviction into an ordinary crash, rework included.
func TestElasticEvictionNoticeTooShortCrashes(t *testing.T) {
	// A checkpoint interval past the horizon: the only snapshot a run
	// can have is a forced drain, so the crash path visibly loses the
	// whole attempt.
	cfg := testConfig(3, 6, ampi.TargetFS, sim.Time(time.Second))
	setup, total := probe(t, cfg)

	finals := make([]uint64, cfg.VPs)
	job := elasticJob(cfg, finals)
	job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
		{Kind: ft.Eviction, At: setup + (total-setup)*3/5, Node: 1, Notice: 0},
	}}
	rep, err := ft.RunElastic(job)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(t, finals)
	if rep.Epochs() != 1 {
		t.Fatalf("epochs = %d, want 1", rep.Epochs())
	}
	rz := rep.Resizes[0]
	if !rz.Crashed || rz.Drained {
		t.Errorf("zero-notice eviction resize = %+v, want Crashed", rz)
	}
	if rz.Rework <= 0 || rep.ReworkForced() != rz.Rework {
		t.Errorf("crashed eviction rework = %v, want positive", rz.Rework)
	}
	if got := len(rep.World.Cluster.Nodes); got != 2 {
		t.Errorf("job ended on %d nodes, want 2", got)
	}
}

// TestElasticDrainBeatsCrash is the experiment's headline comparison in
// miniature: the same eviction costs strictly less time-to-solution
// when the notice allows a drain than when it forces a crash.
func TestElasticDrainBeatsCrash(t *testing.T) {
	cfg := testConfig(3, 6, ampi.TargetFS, sim.Time(time.Second))
	setup, total := probe(t, cfg)
	evictAt := setup + (total-setup)*3/5

	run := func(notice sim.Time) *ft.ElasticReport {
		finals := make([]uint64, cfg.VPs)
		job := elasticJob(cfg, finals)
		job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
			{Kind: ft.Eviction, At: evictAt, Node: 1, Notice: notice},
		}}
		rep, err := ft.RunElastic(job)
		if err != nil {
			t.Fatal(err)
		}
		checkFinals(t, finals)
		return rep
	}
	drained := run(total)
	crashed := run(0)
	if !drained.Resizes[0].Drained || !crashed.Resizes[0].Crashed {
		t.Fatalf("setup failed: drained=%+v crashed=%+v", drained.Resizes[0], crashed.Resizes[0])
	}
	if drained.ReworkNoticed() != 0 {
		t.Errorf("drained eviction reworked %v", drained.ReworkNoticed())
	}
	if crashed.ReworkForced() <= 0 {
		t.Errorf("crashed eviction reworked %v, want positive", crashed.ReworkForced())
	}
	if crashed.TotalTime <= drained.TotalTime {
		t.Errorf("crash path (%v) should cost more time-to-solution than drain path (%v)",
			crashed.TotalTime, drained.TotalTime)
	}
}

func TestElasticArrivalExpandsMachine(t *testing.T) {
	cfg := testConfig(2, 8, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(t, cfg)

	finals := make([]uint64, cfg.VPs)
	job := elasticJob(cfg, finals)
	job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
		{Kind: ft.Arrival, At: setup + (total-setup)/2, Count: 1},
	}}
	rep, err := ft.RunElastic(job)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(t, finals)
	rz := rep.Resizes[0]
	if rz.Kind != ft.Arrival || !rz.Drained || rz.Delta != 1 || rz.Nodes != 3 {
		t.Errorf("arrival resize = %+v, want drained +1 node", rz)
	}
	if got := len(rep.World.Cluster.Nodes); got != 3 {
		t.Errorf("job ended on %d nodes, want 3", got)
	}
	// The new node joined mid-run: node-seconds must land strictly
	// between 2x and 3x the run length.
	if lo, hi := 2*rep.TotalTime, 3*rep.TotalTime; rep.NodeSeconds <= lo || rep.NodeSeconds >= hi {
		t.Errorf("node-seconds %v outside (%v, %v)", rep.NodeSeconds, lo, hi)
	}
	if rep.NodeSeconds.Hours() <= 0 {
		t.Error("node-hours not positive")
	}
}

// rollingPlan builds the deterministic rolling-restart schedule: one
// node at a time is evicted with the given notice and immediately
// replaced, one step every gap, starting at start.
func rollingPlan(start, gap, notice sim.Time, nodes int) ft.ChurnPlan {
	var p ft.ChurnPlan
	for i := 0; i < nodes; i++ {
		at := start + gap*sim.Time(i)
		p.Events = append(p.Events,
			ft.ChurnEvent{Kind: ft.Eviction, At: at, Node: i, Notice: notice},
			ft.ChurnEvent{Kind: ft.Arrival, At: at, Count: 1})
	}
	return p
}

func TestElasticRollingRestartPreservesShape(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	setup, total := probe(t, cfg)

	finals := make([]uint64, cfg.VPs)
	job := elasticJob(cfg, finals)
	job.Churn = rollingPlan(setup+(total-setup)/3, 20*sim.Time(time.Millisecond), total, 2)
	job.MaxRestarts = 16
	rep, err := ft.RunElastic(job)
	if err != nil {
		t.Fatal(err)
	}
	checkFinals(t, finals)
	if rep.Epochs() != 4 {
		t.Fatalf("epochs = %d, want 4 (two evict+replace pairs)", rep.Epochs())
	}
	for i, rz := range rep.Resizes {
		if !rz.Drained {
			t.Errorf("rolling step %d not drained: %+v", i, rz)
		}
	}
	if rep.ReworkNoticed() != 0 {
		t.Errorf("rolling restart lost %v of work", rep.ReworkNoticed())
	}
	if got := len(rep.World.Cluster.Nodes); got != 2 {
		t.Errorf("rolling restart ended on %d nodes, want the original 2", got)
	}
}

// TestElasticChurnFreeIsIdentical pins the hot-path guarantee at the
// supervisor level: with no churn and no faults,
// RunElastic is bit-identical to a bare run — same virtual time, same
// application state, byte-identical trace.
func TestElasticChurnFreeIsIdentical(t *testing.T) {
	run := func(elastic bool) (sim.Time, []uint64, []byte) {
		cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
		rec := trace.NewRecorder()
		cfg.Tracer = rec
		finals := make([]uint64, cfg.VPs)
		var w *ampi.World
		if elastic {
			rep, err := ft.RunElastic(elasticJob(cfg, finals))
			if err != nil {
				t.Fatal(err)
			}
			w = rep.World
		} else {
			var err error
			w, err = ampi.NewWorld(cfg, synth.Checkpointed(testIters, testCompute, finals))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := trace.WriteJSONL(&buf, rec.Events()); err != nil {
			t.Fatal(err)
		}
		return w.Time(), finals, buf.Bytes()
	}
	bareTime, bareFinals, bareTrace := run(false)
	elTime, elFinals, elTrace := run(true)
	if bareTime != elTime {
		t.Errorf("churn-free elastic time %v != bare %v", elTime, bareTime)
	}
	if fmt.Sprint(bareFinals) != fmt.Sprint(elFinals) {
		t.Errorf("churn-free elastic finals %v != bare %v", elFinals, bareFinals)
	}
	if !bytes.Equal(bareTrace, elTrace) {
		t.Errorf("churn-free elastic trace differs from bare run (%d vs %d bytes)", len(elTrace), len(bareTrace))
	}
}

func TestElasticDeterministic(t *testing.T) {
	run := func() (sim.Time, sim.Time, []uint64) {
		cfg := testConfig(3, 6, ampi.TargetFS, 5*time.Millisecond)
		setup, total := probe(t, cfg)
		finals := make([]uint64, cfg.VPs)
		job := elasticJob(cfg, finals)
		job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{
			{Kind: ft.Eviction, At: setup + (total-setup)/3, Node: 2, Notice: total},
			{Kind: ft.Arrival, At: setup + (total-setup)*2/3, Count: 1},
		}}
		job.Faults = ft.Plan{Faults: []ft.Fault{{At: total * 4 / 5, Node: 0}}}
		job.MaxRestarts = 16
		rep, err := ft.RunElastic(job)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalTime, rep.NodeSeconds, finals
	}
	t1, n1, f1 := run()
	t2, n2, f2 := run()
	if t1 != t2 || n1 != n2 || fmt.Sprint(f1) != fmt.Sprint(f2) {
		t.Errorf("elastic run not deterministic: (%v, %v, %v) vs (%v, %v, %v)", t1, n1, f1, t2, n2, f2)
	}
}

func TestElasticValidation(t *testing.T) {
	cfg := testConfig(2, 4, ampi.TargetFS, 5*time.Millisecond)
	finals := make([]uint64, cfg.VPs)
	if _, err := ft.RunElastic(ft.ElasticJob{Config: cfg}); err == nil {
		t.Error("RunElastic accepted a job with no program")
	}
	job := elasticJob(cfg, finals)
	job.Config.Checkpoint = nil
	job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.Arrival, At: 1, Count: 1}}}
	if _, err := ft.RunElastic(job); err == nil {
		t.Error("RunElastic accepted churn without a checkpoint policy")
	}
	job = elasticJob(cfg, finals)
	job.Churn = ft.ChurnPlan{Events: []ft.ChurnEvent{{Kind: ft.Arrival, At: 1}}}
	if _, err := ft.RunElastic(job); err == nil {
		t.Error("RunElastic accepted an invalid churn plan")
	}
}
