package scenario_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/mem"
	"provirt/internal/scenario"
	"provirt/internal/workloads/synth"
)

// A bare point's row is the eleven columns it always was: nothing a
// supervised run adds, and nothing a figure reads, reaches the wire.
func TestExecuteBareRowKeepsItsWireShape(t *testing.T) {
	sp := scenario.DefaultSpec("hello")
	row, report, err := sp.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Error("hello comes with a report function")
	}
	if row.Attempts != 0 || row.TotalNs != 0 {
		t.Errorf("bare row carries supervised columns: %+v", row)
	}
	if row.ExecNs <= 0 || row.Switches == 0 || row.TimeNs() != row.SetupNs+row.ExecNs {
		t.Errorf("figure columns not filled: %+v", row)
	}
	doc, err := json.Marshal(row)
	if err != nil {
		t.Fatal(err)
	}
	var cols map[string]any
	if err := json.Unmarshal(doc, &cols); err != nil {
		t.Fatal(err)
	}
	if len(cols) != 11 {
		t.Errorf("bare row has %d wire columns, want 11: %s", len(cols), doc)
	}
}

// Naming a fault or churn process — even one that injects nothing —
// selects the supervisor, and the row says so.
func TestExecuteDispatchesOnFaultsAndChurn(t *testing.T) {
	base := func() scenario.Spec {
		return scenario.Spec{
			Machine: shape(4, 1, 2), VPs: 8, Method: core.KindPIEglobals, Workload: "checkpointed",
			Checkpoint: &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: "/scratch/x", Interval: 32 * time.Millisecond},
		}
	}
	bare := base()
	plain, _, err := bare.Execute()
	if err != nil {
		t.Fatal(err)
	}

	calm := base()
	calm.Churn = &ft.ChurnSpec{}
	row, _, err := calm.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if row.Attempts != 1 || row.TotalNs != plain.TimeNs() || row.NodeTimeNs != 4*row.TotalNs {
		t.Errorf("calm supervised run: attempts %d total %d node-time %d, want 1, %d, %d",
			row.Attempts, row.TotalNs, row.NodeTimeNs, plain.TimeNs(), 4*plain.TimeNs())
	}
	row.TotalNs, row.Attempts, row.NodeTimeNs = 0, 0, 0
	if row != plain {
		t.Errorf("an empty plan changed the run:\n bare %+v\n calm %+v", plain, row)
	}

	crashed := base()
	crashed.Faults = &ft.FaultSpec{Seed: 3, MTBF: 120 * time.Millisecond, Horizon: time.Second}
	row, _, err = crashed.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if row.Recoveries == 0 || row.Attempts != row.Recoveries+1 || row.RestoredBytes == 0 || row.MeanRecoveryNs <= 0 || row.TotalNs <= plain.TimeNs() {
		t.Errorf("crash process left no mark: %+v", row)
	}

	churned := base()
	churned.Churn = &ft.ChurnSpec{Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond, MaxEvents: 2}
	row, _, err = churned.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if row.Epochs != 2 || row.Drained != 2 || row.Crashed != 0 || row.ReworkNoticedNs != 0 || row.NodeTimeNs >= 4*row.TotalNs {
		t.Errorf("spot evictions with notice should drain twice and shed node-time: %+v", row)
	}
}

func TestFaultsJSONRoundTripAndHash(t *testing.T) {
	sp := scenario.DefaultSpec("checkpointed")
	plain, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if canon, _ := scenario.ContentDocument(&sp); strings.Contains(string(canon), `"faults"`) {
		t.Errorf("fault-free content document mentions faults: %s", canon)
	}
	sp.Faults = &ft.FaultSpec{Seed: 9, MTBF: 120 * time.Millisecond, Horizon: time.Second}
	doc, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), `"faults":{"seed":9,"mtbf_ns":120000000,"horizon_ns":1000000000}`) {
		t.Errorf("wire document: %s", doc)
	}
	var back scenario.Spec
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || *back.Faults != *sp.Faults {
		t.Errorf("faults did not round-trip: %+v", back.Faults)
	}
	h1, _ := sp.Hash()
	h2, _ := back.Hash()
	if h1 != h2 || h1 == plain {
		t.Errorf("hashes: with faults %s, round-tripped %s, without %s", h1, h2, plain)
	}
}

func TestValidateFaults(t *testing.T) {
	sp := scenario.DefaultSpec("checkpointed")
	sp.Faults = &ft.FaultSpec{MTBF: time.Millisecond} // no horizon
	wantField(t, sp.Validate(), "Faults", "horizon")
	sp.Faults = &ft.FaultSpec{MTBF: -1, Horizon: time.Second}
	wantField(t, sp.Validate(), "Faults", "non-negative")
	// A supervised run restarts a program it must be able to rebuild.
	sp = scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.KindPIEglobals, Program: synth.Empty(),
		Faults: &ft.FaultSpec{}}
	if _, _, err := sp.Execute(); err == nil || !strings.Contains(err.Error(), "Program") {
		t.Errorf("supervised run of an explicit Program: %v", err)
	}
}

// `has_lb` used to be accepted, hashed, and then overwritten with
// whether the Spec has a balancer: two documents identical but for it
// got two hashes and one row. It is derived, so the wire cannot say it.
func TestHasLBCannotBeSetFromTheWire(t *testing.T) {
	const doc = `{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2},"vps":4,"method":"pieglobals","workload":"adcirc","workload_params":{"quick":true%s}}`
	var without, with scenario.Spec
	if err := json.Unmarshal([]byte(strings.Replace(doc, "%s", "", 1)), &without); err != nil {
		t.Fatal(err)
	}
	err := json.Unmarshal([]byte(strings.Replace(doc, "%s", `,"has_lb":true`, 1)), &with)
	if err == nil || !strings.Contains(err.Error(), "has_lb") {
		t.Fatalf("has_lb accepted from the wire (err %v): the two documents cannot both be points", err)
	}
	// What is hashed is what the workload is told: whether it has a
	// balancer.
	balanced := without
	var perr error
	if balanced.Balancer, perr = scenario.ParseBalancer("greedyrefine", 0); perr != nil {
		t.Fatal(perr)
	}
	h1, err := without.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h2, err := balanced.Hash(); err != nil || h2 == h1 {
		t.Errorf("a balancer does not move the hash: %s vs %s (%v)", h1, h2, err)
	}
}

// The wire can name a machine; it must be one the model can hold. PEs
// beyond mem.MaxRanks could never run a rank, thirty million of them
// cost 850 MB before the first event, and 10^18 wraps int.
func TestValidateMachineBeyondWhatRanksCanOccupy(t *testing.T) {
	sp := scenario.Spec{Machine: shape(mem.MaxRanks/6, 2, 3), VPs: 4, Method: core.KindPIEglobals, Workload: "empty"}
	if err := sp.Validate(); err != nil {
		t.Fatalf("%d PEs must be accepted: %v", mem.MaxRanks, err)
	}
	for name, m := range map[string][3]int{
		"one too many":  {mem.MaxRanks + 1, 1, 1},
		"30 million":    {3000, 100, 100},
		"wraps int":     {1e6, 1e6, 1e6},
		"wraps to zero": {1 << 32, 1 << 32, 1},
		"max int":       {math.MaxInt, math.MaxInt, math.MaxInt},
	} {
		sp.Machine = shape(m[0], m[1], m[2])
		err := sp.Validate()
		if err == nil {
			t.Errorf("%s: %v accepted", name, m)
			continue
		}
		wantField(t, err, "Machine", "exceed")
	}
}

// A hostile plan is a 400 or a bounded run, never a long loop.
func TestHostilePlansAreBounded(t *testing.T) {
	sp := scenario.Spec{
		Machine: shape(3, 1, 2), VPs: 6, Method: core.KindPIEglobals, Workload: "checkpointed",
		Checkpoint: &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: "/scratch/x", Interval: 19 * time.Millisecond},
		Churn:      &ft.ChurnSpec{EvictionEvery: 1, Horizon: 1 << 62, MaxEvents: 1 << 62},
	}
	wantField(t, sp.Validate(), "Churn", "max events")

	sp.Churn = nil
	sp.Faults = &ft.FaultSpec{Seed: 1, MTBF: 1, Horizon: 1 << 62}
	done := make(chan error, 1)
	go func() {
		_, _, err := sp.Execute()
		done <- err
	}()
	select {
	case err := <-done:
		// A crash every nanosecond: the supervisor gives up.
		if err == nil || !strings.Contains(err.Error(), "still failing") {
			t.Errorf("want restart exhaustion, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a 2^62 ns horizon at a 1 ns MTBF did not finish in 30 s")
	}
}

// The checkpointed workload fails its point when a rank ends with the
// wrong accumulator: here one that starts with work it never did.
func TestCheckpointedWorkloadFailsOnDoubleCountedWork(t *testing.T) {
	prog := synth.CheckpointedChecked(3, time.Millisecond)
	body := prog.Main
	prog.Main = func(r *ampi.Rank) {
		r.Ctx().Store("acc", 1)
		body(r)
	}
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.KindPIEglobals, Program: prog}
	if _, _, err := sp.Execute(); err == nil || !strings.Contains(err.Error(), "lost or double-counted") {
		t.Fatalf("a wrong accumulator must fail the point, got %v", err)
	}
}
