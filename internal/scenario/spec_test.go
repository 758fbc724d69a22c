package scenario_test

import (
	"errors"
	"strings"
	"testing"

	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/scenario"
	"provirt/internal/workloads/synth"
)

func shape(nodes, procs, pes int) machine.Config {
	return machine.Config{Nodes: nodes, ProcsPerNode: procs, PEsPerProc: pes}
}

// fields extracts the Field names of a *ValidationError, failing the
// test if err is nil or of another type.
func fields(t *testing.T, err error) []string {
	t.Helper()
	var ve *scenario.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	var out []string
	for _, fe := range ve.Errs {
		out = append(out, fe.Field)
	}
	return out
}

func wantField(t *testing.T, err error, field, substr string) {
	t.Helper()
	var ve *scenario.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want *ValidationError, got %T: %v", err, err)
	}
	for _, fe := range ve.Errs {
		if fe.Field == field && strings.Contains(fe.Msg, substr) {
			return
		}
	}
	t.Fatalf("no FieldError on %q containing %q in %v", field, substr, ve)
}

func TestValidateHappyPathAndRun(t *testing.T) {
	sp := scenario.Spec{
		Machine:  shape(1, 1, 1),
		VPs:      2,
		Method:   core.KindPIEglobals,
		Workload: "hello",
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	built, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if built.Report == nil {
		t.Error("hello workload should come with a report function")
	}
	if err := built.World.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateZeroVPs(t *testing.T) {
	sp := scenario.Spec{Machine: shape(1, 1, 1), Method: core.KindTLSglobals, Workload: "empty"}
	wantField(t, sp.Validate(), "VPs", "must be positive")
}

// A world with more ranks than the Isomalloc arena has per-rank ranges
// used to reach mem.NewHeap's panic; it must be a field error instead.
func TestValidateTooManyVPs(t *testing.T) {
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: mem.MaxRanks, Method: core.KindTLSglobals, Workload: "empty"}
	if err := sp.Validate(); err != nil {
		t.Fatalf("%d VPs fill the arena exactly and must be accepted: %v", sp.VPs, err)
	}
	sp.VPs = mem.MaxRanks + 1
	wantField(t, sp.Validate(), "VPs", "Isomalloc arena")
}

func TestValidateBadMachine(t *testing.T) {
	sp := scenario.Spec{Machine: shape(0, 1, 1), VPs: 2, Method: core.KindTLSglobals, Workload: "empty"}
	wantField(t, sp.Validate(), "Machine", "")
}

func TestValidateUnknownMethod(t *testing.T) {
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.Kind(99), Workload: "empty"}
	wantField(t, sp.Validate(), "Method", "unknown privatization method")
}

func TestValidateUnknownWorkload(t *testing.T) {
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.KindTLSglobals, Workload: "nope"}
	err := sp.Validate()
	wantField(t, err, "Workload", `unknown workload "nope"`)
	// The message lists the registered names so the user can fix the
	// flag without reading source.
	if !strings.Contains(err.Error(), "hello") {
		t.Errorf("unknown-workload error should list registered names: %v", err)
	}
}

func TestValidateWorkloadAndProgramMutuallyExclusive(t *testing.T) {
	sp := scenario.Spec{
		Machine:  shape(1, 1, 1),
		VPs:      2,
		Method:   core.KindTLSglobals,
		Workload: "empty",
		Program:  synth.Empty(),
	}
	wantField(t, sp.Validate(), "Workload", "mutually exclusive")
}

func TestValidateNonMigratableMethodWithBalancer(t *testing.T) {
	sp := scenario.Spec{
		Machine:  shape(1, 1, 2),
		VPs:      4,
		Method:   core.KindPIPglobals,
		Workload: "empty",
		Balancer: lb.GreedyRefineLB{},
	}
	wantField(t, sp.Validate(), "Balancer", "does not support migration")
}

func TestValidateNonSMPMethodInSMPMode(t *testing.T) {
	sp := scenario.Spec{
		Machine:   shape(1, 1, 2),
		VPs:       4,
		Method:    core.KindSwapglobals,
		EnvPolicy: scenario.EnvExplicit,
		Workload:  "empty",
	}
	sp.Toolchain, sp.OS = core.Bridges2Env()
	sp.OS.OldOrPatchedLinker = true
	wantField(t, sp.Validate(), "Machine", "does not support SMP")
}

func TestValidateSwapglobalsNeedsOldLinker(t *testing.T) {
	sp := scenario.Spec{
		Machine:   shape(1, 1, 1),
		VPs:       2,
		Method:    core.KindSwapglobals,
		EnvPolicy: scenario.EnvBridges2,
		Workload:  "empty",
	}
	wantField(t, sp.Validate(), "Method", "old or patched linker")
	sp.EnvPolicy = scenario.EnvExplicit
	sp.Toolchain, sp.OS = core.Bridges2Env()
	sp.OS.OldOrPatchedLinker = true
	if err := sp.Validate(); err != nil {
		t.Errorf("swapglobals with an old linker spelled out rejected: %v", err)
	}
	// The harness policy adjusts the environment automatically.
	sp.EnvPolicy = scenario.EnvAdjust
	sp.Toolchain, sp.OS = core.Toolchain{}, core.OS{}
	if err := sp.Validate(); err != nil {
		t.Errorf("swapglobals under EnvAdjust rejected: %v", err)
	}
}

func TestValidateMPCNeedsPatchedCompiler(t *testing.T) {
	sp := scenario.Spec{
		Machine:   shape(1, 1, 1),
		VPs:       2,
		Method:    core.KindMPCPrivatize,
		EnvPolicy: scenario.EnvBridges2,
		Workload:  "empty",
	}
	wantField(t, sp.Validate(), "Method", "MPC-patched compiler")
	sp.EnvPolicy = scenario.EnvExplicit
	sp.Toolchain, sp.OS = core.Bridges2Env()
	sp.Toolchain.MPCPatched = true
	if err := sp.Validate(); err != nil {
		t.Errorf("fmpc-privatize with an MPC-patched compiler spelled out rejected: %v", err)
	}
}

func TestValidatePIPglobalsNamespaceLimit(t *testing.T) {
	// 16 ranks in one process exceeds the stock 12-namespace dlmopen
	// limit; the launcher policy reports it, the harness policy patches
	// glibc automatically.
	sp := scenario.Spec{
		Machine:   shape(1, 1, 1),
		VPs:       16,
		Method:    core.KindPIPglobals,
		EnvPolicy: scenario.EnvBridges2,
		Workload:  "empty",
	}
	wantField(t, sp.Validate(), "Method", "patched glibc")
	sp.EnvPolicy = scenario.EnvAdjust
	if err := sp.Validate(); err != nil {
		t.Errorf("pipglobals under EnvAdjust rejected: %v", err)
	}
	// Under the limit, the stock environment is fine.
	sp.EnvPolicy = scenario.EnvBridges2
	sp.VPs = 8
	if err := sp.Validate(); err != nil {
		t.Errorf("pipglobals with 8 ranks/process rejected: %v", err)
	}
}

func TestValidatePlacementLength(t *testing.T) {
	sp := scenario.Spec{
		Machine:   shape(1, 1, 1),
		VPs:       4,
		Method:    core.KindTLSglobals,
		Workload:  "empty",
		Placement: []int{0, 0},
	}
	wantField(t, sp.Validate(), "Placement", "want one per VP")
}

func TestValidateStackSizeBeyondRankRange(t *testing.T) {
	sp := scenario.DefaultSpec("empty")
	sp.StackSize = mem.IsomallocRangeSize
	if err := sp.Validate(); err != nil {
		t.Errorf("a stack filling the rank's range is the allocator's to refuse: %v", err)
	}
	for _, size := range []uint64{mem.IsomallocRangeSize + 1, 1<<64 - 4096, 1<<64 - 1} {
		sp.StackSize = size
		wantField(t, sp.Validate(), "StackSize", "Isomalloc range")
	}
}

func TestValidateAggregatesAllErrors(t *testing.T) {
	sp := scenario.Spec{
		Machine:  shape(0, 1, 1),
		VPs:      0,
		Method:   core.Kind(99),
		Workload: "nope",
	}
	got := fields(t, sp.Validate())
	want := map[string]bool{"Machine": true, "VPs": true, "Method": true, "Workload": true}
	for _, f := range got {
		delete(want, f)
	}
	if len(want) != 0 {
		t.Errorf("missing FieldErrors for %v (got fields %v)", want, got)
	}
}

func TestConfigWithoutWorkloadIsValidButBuildRejects(t *testing.T) {
	// A Config-only Spec (the fault-tolerance supervisor builds the
	// program per attempt) needs neither Workload nor Program...
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.KindTLSglobals}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatalf("Config-only spec rejected: %v", err)
	}
	if cfg.VPs != 2 || cfg.Privatize != core.KindTLSglobals {
		t.Errorf("lowered config wrong: %+v", cfg)
	}
	// ...but Build has nothing to run.
	if _, err := sp.Build(); err == nil {
		t.Fatal("Build accepted a spec with no workload and no program")
	} else {
		wantField(t, err, "Workload", "no workload")
	}
}

func TestConfigMatchesEngineDefaults(t *testing.T) {
	// The Spec lowers the Bridges-2 environment explicitly; the engine
	// defaults a zero environment to the same values, so both routes
	// must produce value-identical configs (this is what keeps the
	// refactored experiments bit-identical).
	sp := scenario.Spec{Machine: shape(1, 1, 1), VPs: 2, Method: core.KindPIEglobals}
	cfg, err := sp.Config()
	if err != nil {
		t.Fatal(err)
	}
	tc, osEnv := core.Bridges2Env()
	if cfg.Toolchain != tc || cfg.OS != osEnv {
		t.Errorf("Spec env differs from Bridges2Env: %+v / %+v", cfg.Toolchain, cfg.OS)
	}
	if cfg.Machine != shape(1, 1, 1) || cfg.VPs != 2 || cfg.Privatize != core.KindPIEglobals ||
		cfg.StackSize != 0 || cfg.Balancer != nil || cfg.Checkpoint != nil || cfg.Placement != nil {
		t.Errorf("Spec config carries unexpected values: %+v", cfg)
	}
}

func TestParseBalancer(t *testing.T) {
	for _, name := range scenario.BalancerNames() {
		s, err := scenario.ParseBalancer(name, 4)
		if err != nil || s == nil {
			t.Errorf("ParseBalancer(%q) = %v, %v", name, s, err)
		}
	}
	if s, err := scenario.ParseBalancer("", 4); err != nil || s != nil {
		t.Errorf("empty balancer should be nil, nil; got %v, %v", s, err)
	}
	if _, err := scenario.ParseBalancer("zigzag", 4); err == nil {
		t.Error("unknown balancer accepted")
	}
}

func TestWorkloadRegistry(t *testing.T) {
	names := scenario.WorkloadNames()
	for _, want := range []string{"hello", "ping", "empty", "jacobi", "adcirc", "amr"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("workload %q not registered (have %v)", want, names)
		}
	}
	if len(scenario.Workloads()) != len(names) {
		t.Error("Workloads and WorkloadNames disagree")
	}
}

// A workload parameter the workload does not read, one past its bound
// and a negative node grouping are refused, each naming its key. Quick
// is read by every workload that has a reduced size and accepted by
// all.
func TestValidateRefusesUnreadOrOutOfRangeKeys(t *testing.T) {
	for _, tc := range []struct {
		workload string
		params   scenario.WorkloadParams
		key      string
	}{
		{"jacobi", scenario.WorkloadParams{HeapBytes: 1 << 20}, "heap_bytes"},
		{"adcirc", scenario.WorkloadParams{Grid: 8}, "grid"},
		{"ballast", scenario.WorkloadParams{Iters: 2}, "iters"},
		{"empty", scenario.WorkloadParams{Quick: true, Grid: 8}, "grid"},
		{"jacobi", scenario.WorkloadParams{Grid: 65}, "grid"},
		{"jacobi", scenario.WorkloadParams{Iters: 1001}, "iters"},
		{"ballast", scenario.WorkloadParams{HeapBytes: mem.IsomallocRangeSize}, "heap_bytes"},
	} {
		sp := scenario.DefaultSpec(tc.workload)
		sp.WorkloadParams = tc.params
		wantField(t, sp.Validate(), "WorkloadParams", tc.key)
	}
	sp := scenario.DefaultSpec("adcirc")
	sp.Balancer = lb.HierarchicalLB{PEsPerNode: -5}
	wantField(t, sp.Validate(), "Balancer", "balancer_pes_per_node")
	for _, name := range scenario.WorkloadNames() {
		if sp := scenario.DefaultSpec(name); sp.Validate() != nil {
			t.Errorf("%s refuses quick: %v", name, sp.Validate())
		}
	}
}

// The most heap_bytes Validate passes fits beside the PIE methods'
// segment copies and the stack: the rank allocates it and migrates.
func TestBallastAtItsBoundRuns(t *testing.T) {
	sp := scenario.Spec{Machine: shape(2, 1, 1), VPs: 1, Method: core.KindPIEglobals, Workload: "ballast",
		Balancer: lb.RotateLB{}, StackSize: 8 << 20}
	sp.WorkloadParams.HeapBytes = mem.IsomallocRangeSize - 1<<30 - sp.StackSize
	if row, _, err := sp.Execute(); err != nil || row.Migrations != 1 {
		t.Fatalf("ballast at its bound: %d migrations, %v", row.Migrations, err)
	}
	sp.WorkloadParams.HeapBytes++
	wantField(t, sp.Validate(), "WorkloadParams", "heap_bytes")
}

// Checking the workload parameters allocates nothing: a valid point
// with them validates in as many allocations as one without.
func TestValidatingParamsAllocatesNothing(t *testing.T) {
	plain := scenario.DefaultSpec("jacobi")
	with := plain
	with.WorkloadParams.Grid, with.WorkloadParams.Iters = 8, 2
	allocs := func(sp scenario.Spec) float64 {
		return testing.AllocsPerRun(100, func() {
			if err := sp.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(plain), allocs(with); a != b {
		t.Errorf("Validate allocates %v times with workload parameters, %v without", b, a)
	}
}
