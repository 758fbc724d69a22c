package scenario_test

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/scenario"
	"provirt/internal/sim"
)

func churnSpec() *ft.ChurnSpec {
	// Two evictions at most (MaxEvents) so a 3-node job never shrinks
	// past its last node; the 1s notice always reaches a consistency
	// point, so every change drains.
	return &ft.ChurnSpec{
		Seed:          7,
		EvictionEvery: 20 * sim.Time(time.Millisecond),
		Notice:        sim.Time(time.Second),
		Horizon:       400 * sim.Time(time.Millisecond),
		MaxEvents:     2,
	}
}

func elasticSpec() scenario.Spec {
	return scenario.Spec{
		Machine:        shape(3, 1, 2),
		VPs:            12,
		Method:         core.KindPIEglobals,
		Workload:       "jacobi",
		WorkloadParams: scenario.WorkloadParams{Quick: true},
		Checkpoint: &ampi.CheckpointPolicy{
			Target:   ampi.TargetFS,
			Dir:      "/scratch/elastic",
			Interval: 5 * sim.Time(time.Millisecond),
		},
		Churn: churnSpec(),
	}
}

func TestValidateChurnNeedsCheckpoint(t *testing.T) {
	sp := elasticSpec()
	sp.Checkpoint = nil
	wantField(t, sp.Validate(), "Churn", "checkpoint policy")
}

func TestValidateChurnNeedsMigratableMethod(t *testing.T) {
	sp := elasticSpec()
	sp.Machine = shape(3, 1, 1)
	sp.Method = core.KindPIPglobals
	wantField(t, sp.Validate(), "Churn", "does not support migration")
}

func TestValidateChurnBadSpec(t *testing.T) {
	sp := elasticSpec()
	sp.Churn = &ft.ChurnSpec{EvictionEvery: sim.Time(time.Millisecond)} // no horizon
	wantField(t, sp.Validate(), "Churn", "horizon")
}

func TestChurnJSONRoundTripAndHash(t *testing.T) {
	sp := elasticSpec()
	data, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	var back scenario.Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Churn == nil || *back.Churn != *sp.Churn {
		t.Errorf("churn did not round-trip: %+v vs %+v", back.Churn, sp.Churn)
	}
	h1, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := back.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("hash changed across round trip: %s vs %s", h1, h2)
	}
	// Churn is output-determining: the same Spec without it hashes
	// differently.
	calm := sp
	calm.Churn = nil
	hc, err := calm.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hc == h1 {
		t.Error("churn-free spec shares the churned spec's hash")
	}
	// Without churn the content document has no churn object at all.
	canon, err := scenario.ContentDocument(&calm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(canon), `"churn"`) {
		t.Errorf("churn-free content document mentions churn: %s", canon)
	}
}

func TestRunElasticExecutesChurn(t *testing.T) {
	sp := elasticSpec()
	rep, report, err := sp.RunElastic()
	if err != nil {
		t.Fatal(err)
	}
	if rep.World == nil {
		t.Fatal("no completed world")
	}
	if report == nil {
		t.Error("jacobi workload should come with a report function")
	}
	if rep.Epochs() == 0 {
		t.Fatalf("churn schedule executed no membership changes (attempts %d)", rep.Attempts)
	}
	for i, rz := range rep.Resizes {
		if !rz.Drained {
			t.Errorf("resize %d not drained despite a 1s notice: %+v", i, rz)
		}
	}
	if rep.NodeSeconds <= 0 {
		t.Error("node-seconds not accounted")
	}
}

func TestRunElasticDeterministic(t *testing.T) {
	run := func() (sim.Time, sim.Time, int) {
		sp := elasticSpec()
		rep, _, err := sp.RunElastic()
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalTime, rep.NodeSeconds, rep.Epochs()
	}
	t1, n1, e1 := run()
	t2, n2, e2 := run()
	if t1 != t2 || n1 != n2 || e1 != e2 {
		t.Errorf("elastic scenario not deterministic: (%v, %v, %d) vs (%v, %v, %d)", t1, n1, e1, t2, n2, e2)
	}
}

func TestRunElasticRequiresWorkload(t *testing.T) {
	sp := elasticSpec()
	sp.Workload = ""
	sp.Program = nil
	if _, _, err := sp.RunElastic(); err == nil {
		t.Error("RunElastic accepted a spec with no workload")
	}
	sp2 := elasticSpec()
	sp2.Workload = ""
	sp2.Program = &ampi.Program{}
	if _, _, err := sp2.RunElastic(); err == nil {
		t.Error("RunElastic accepted an explicit Program")
	}
}

// A node that leaves while the snapshot meant to drain it is still being
// written takes the job back to the last snapshot that was complete
// when it left, and the work since is rework. With seed 2 and 120 ms of
// notice, examples/cloudrestart.json's node leaves at 130.29 ms, before
// the drain's snapshot (its first) completes at 135.56 ms: the restart
// is cold, and all 130.29 ms are forced rework. Adopting the unfinished
// snapshot booked none.
func TestEvictionDuringTheDrainSnapshotIsRework(t *testing.T) {
	body, err := os.ReadFile("../../examples/cloudrestart.json")
	if err != nil {
		t.Fatal(err)
	}
	points, err := scenario.DecodeRequest(strings.NewReader(string(body)), nil)
	if err != nil || len(points) != 1 {
		t.Fatalf("%d points, %v", len(points), err)
	}
	sp := points[0]
	sp.Churn.Seed, sp.Churn.Notice = 2, 120*sim.Time(time.Millisecond)
	row, _, err := sp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if row.Crashed != 1 || row.ReworkForcedNs <= 0 {
		t.Fatalf("crashed %d, rework_forced_ns %d: want one crashed eviction with its rework booked",
			row.Crashed, row.ReworkForcedNs)
	}
}
