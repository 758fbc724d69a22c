package scenario_test

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/lb"
	"provirt/internal/scenario"
)

// No hashed field is accepted and ignored (ROADMAP aim 3). Every
// `tag=` line Canonical can emit is part of a point's content address,
// so every one of them must be able to change what the point produces:
// for each tag there is a witness — a valid Spec and a copy differing
// in the one field behind the tag — whose copy is either refused or
// executes to a different Row. A tag with no such pair names a field
// that mints distinct cache keys for identical results.
//
// Three lines are not fields and are held to the opposite rule — no
// field may move them: the format version, and two labels (the
// toolchain's name, the checkpoint directory) whose lines are frozen
// because no run reads them.

// witness changes the one field behind a tag on a valid base Spec.
type witness struct {
	base   func() scenario.Spec
	mutate func(*scenario.Spec)
	// also lists tags derived from the same field, which move with it.
	also []string
}

func canonLines(t *testing.T, sp scenario.Spec) map[string]string {
	t.Helper()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(canon), "\n"), "\n") {
		tag, val, ok := strings.Cut(l, "=")
		if !ok {
			t.Fatalf("canonical line %q has no tag", l)
		}
		lines[tag] = val
	}
	return lines
}

func emptyBase() scenario.Spec {
	return scenario.Spec{Machine: shape(2, 1, 1), VPs: 4, Method: core.KindPIEglobals, Workload: "empty"}
}

// explicitBase runs method under the Bridges-2 environment spelled out,
// with whatever the method additionally needs switched on.
func explicitBase(method core.Kind, vps int) func() scenario.Spec {
	return func() scenario.Spec {
		sp := emptyBase()
		sp.Machine, sp.VPs, sp.Method = shape(1, 1, 1), vps, method
		sp.EnvPolicy = scenario.EnvExplicit
		sp.Toolchain, sp.OS = core.Bridges2Env()
		sp.Toolchain.MPCPatched = true
		sp.OS.PatchedGlibc = true
		sp.OS.OldOrPatchedLinker = true
		return sp
	}
}

func adcircBase() scenario.Spec {
	return scenario.Spec{
		Machine: shape(1, 1, 4), VPs: 16, Method: core.KindPIEglobals,
		Workload: "adcirc", WorkloadParams: scenario.WorkloadParams{Quick: true},
		Balancer: lb.GreedyRefineLB{},
	}
}

// supervisedBase is the harness's elastic job: the checkpointed kernel
// with room to shrink twice.
func supervisedBase() scenario.Spec {
	return scenario.Spec{
		Machine: shape(4, 1, 2), VPs: 8, Method: core.KindPIEglobals, Workload: "checkpointed",
		Checkpoint: &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: "/scratch/walk", Interval: 32 * time.Millisecond},
	}
}

func churnBase() scenario.Spec {
	sp := supervisedBase()
	sp.Churn = &ft.ChurnSpec{
		Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond, MaxEvents: 2,
	}
	return sp
}

func rollingBase() scenario.Spec {
	sp := supervisedBase()
	sp.Churn = &ft.ChurnSpec{
		RollingEvery: 60 * time.Millisecond, RollingNodes: 1, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond,
	}
	return sp
}

func faultsBase() scenario.Spec {
	sp := supervisedBase()
	sp.Faults = &ft.FaultSpec{Seed: 3, MTBF: 120 * time.Millisecond, Horizon: time.Second}
	return sp
}

var tagWitnesses = map[string]witness{
	"machine.nodes":          {emptyBase, func(s *scenario.Spec) { s.Machine.Nodes = 3 }, nil},
	"machine.procs_per_node": {emptyBase, func(s *scenario.Spec) { s.Machine.ProcsPerNode = 2 }, nil},
	"machine.pes_per_proc":   {emptyBase, func(s *scenario.Spec) { s.Machine.PEsPerProc = 2 }, nil},
	"machine.seed":           {faultsBase, func(s *scenario.Spec) { s.Machine.Seed = 1 }, nil},
	"vps":                    {emptyBase, func(s *scenario.Spec) { s.VPs = 8 }, nil},
	"method":                 {emptyBase, func(s *scenario.Spec) { s.Method = core.KindTLSglobals }, nil},

	"env.toolchain.tls_seg_refs":   {explicitBase(core.KindTLSglobals, 4), func(s *scenario.Spec) { s.Toolchain.SupportsTLSSegRefs = false }, nil},
	"env.toolchain.mpc":            {explicitBase(core.KindMPCPrivatize, 4), func(s *scenario.Spec) { s.Toolchain.MPCPatched = false }, nil},
	"env.toolchain.pie":            {explicitBase(core.KindFSglobals, 4), func(s *scenario.Spec) { s.Toolchain.PIE = false }, nil},
	"env.os.kind":                  {explicitBase(core.KindPIEglobals, 4), func(s *scenario.Spec) { s.OS.Kind = "macos" }, nil},
	"env.os.glibc":                 {explicitBase(core.KindPIPglobals, 4), func(s *scenario.Spec) { s.OS.Glibc = false }, nil},
	"env.os.patched_glibc":         {explicitBase(core.KindPIPglobals, 16), func(s *scenario.Spec) { s.OS.PatchedGlibc = false }, nil},
	"env.os.old_or_patched_linker": {explicitBase(core.KindSwapglobals, 4), func(s *scenario.Spec) { s.OS.OldOrPatchedLinker = false }, nil},
	"env.os.shared_fs":             {explicitBase(core.KindFSglobals, 4), func(s *scenario.Spec) { s.OS.SharedFS = false }, nil},

	"workload":       {emptyBase, func(s *scenario.Spec) { s.Workload = "hello" }, nil},
	"workload.quick": {func() scenario.Spec { sp := emptyBase(); sp.Workload = "jacobi"; return sp }, func(s *scenario.Spec) { s.WorkloadParams.Quick = true }, nil},
	// Whether the workload is told it has a balancer is derived from
	// the balancer, so the two lines move together.
	"workload.has_lb":       {adcircBase, func(s *scenario.Spec) { s.Balancer = nil }, []string{"balancer"}},
	"balancer":              {adcircBase, func(s *scenario.Spec) { s.Balancer = lb.RotateLB{} }, nil},
	"balancer.pes_per_node": {func() scenario.Spec { sp := adcircBase(); sp.Balancer = lb.HierarchicalLB{PEsPerNode: 2}; return sp }, func(s *scenario.Spec) { s.Balancer = lb.HierarchicalLB{PEsPerNode: 4} }, nil},

	"checkpoint.target":      {churnBase, func(s *scenario.Spec) { s.Checkpoint.Target = ampi.TargetBuddy }, nil},
	"checkpoint.interval_ns": {churnBase, func(s *scenario.Spec) { s.Checkpoint.Interval = 16 * time.Millisecond }, nil},

	"churn.seed":              {churnBase, func(s *scenario.Spec) { s.Churn.Seed = 11 }, nil},
	"churn.arrival_every_ns":  {churnBase, func(s *scenario.Spec) { s.Churn.ArrivalEvery = 90 * time.Millisecond }, nil},
	"churn.eviction_every_ns": {churnBase, func(s *scenario.Spec) { s.Churn.EvictionEvery = 240 * time.Millisecond }, nil},
	"churn.notice_ns":         {churnBase, func(s *scenario.Spec) { s.Churn.Notice = 0 }, nil},
	"churn.horizon_ns":        {churnBase, func(s *scenario.Spec) { s.Churn.Horizon = 40 * time.Millisecond }, nil},
	"churn.max_events":        {churnBase, func(s *scenario.Spec) { s.Churn.MaxEvents = 1 }, nil},
	"churn.rolling_every_ns":  {rollingBase, func(s *scenario.Spec) { s.Churn.RollingEvery = 100 * time.Millisecond }, nil},
	"churn.rolling_nodes":     {rollingBase, func(s *scenario.Spec) { s.Churn.RollingNodes = 2 }, nil},

	"faults.seed":       {faultsBase, func(s *scenario.Spec) { s.Faults.Seed = 5 }, nil},
	"faults.mtbf_ns":    {faultsBase, func(s *scenario.Spec) { s.Faults.MTBF = 480 * time.Millisecond }, nil},
	"faults.horizon_ns": {faultsBase, func(s *scenario.Spec) { s.Faults.Horizon = 100 * time.Millisecond }, nil},

	"placement":  {emptyBase, func(s *scenario.Spec) { s.Placement = []int{0, 0, 0, 1} }, nil},
	"stack_size": {adcircBase, func(s *scenario.Spec) { s.StackSize = 2 << 20 }, nil},
}

// frozenTags are the lines no field may move, with a mutation of the
// field each once carried (none for the format version).
var frozenTags = map[string]func(*scenario.Spec){
	"canon":              nil,
	"env.toolchain.name": func(s *scenario.Spec) { s.Toolchain.Name = "icc-2021" },
	"checkpoint.dir":     func(s *scenario.Spec) { s.Checkpoint.Dir = "/elsewhere" },
}

func TestEveryCanonicalTagChangesTheRowOrIsRejected(t *testing.T) {
	// Every tag Canonical can emit, from its own output on a Spec with
	// every optional section present.
	populated := faultsBase()
	populated.Churn = churnBase().Churn
	populated.Balancer = lb.HierarchicalLB{PEsPerNode: 2}
	populated.Placement = []int{0, 1, 2, 3, 4, 5, 6, 7}
	populated.StackSize = 1 << 20
	populated.EnvPolicy = scenario.EnvExplicit
	populated.Toolchain, populated.OS = core.Bridges2Env()
	emitted := canonLines(t, populated)

	var tags []string
	for tag := range emitted {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	for tag := range tagWitnesses {
		if _, ok := emitted[tag]; !ok {
			t.Errorf("witness for %q, which Canonical does not emit", tag)
		}
	}

	for _, tag := range tags {
		t.Run(tag, func(t *testing.T) {
			if mutate, frozen := frozenTags[tag]; frozen {
				if mutate == nil {
					return
				}
				a := populated
				ck := *populated.Checkpoint
				a.Checkpoint = &ck
				before, _ := populated.Canonical()
				mutate(&a)
				after, err := a.Canonical()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("a label moved the content address:\n%s\nvs\n%s", before, after)
				}
				return
			}
			w, ok := tagWitnesses[tag]
			if !ok {
				t.Fatalf("hashed tag %q has no witness: nothing shows the field behind it is either rejected or changes the row", tag)
			}
			a, b := w.base(), w.base()
			w.mutate(&b)
			if err := a.Validate(); err != nil {
				t.Fatalf("witness base is invalid: %v", err)
			}
			la, lb := canonLines(t, a), canonLines(t, b)
			moved := map[string]bool{}
			for k := range la {
				if la[k] != lb[k] {
					moved[k] = true
				}
			}
			for k := range lb {
				if _, ok := la[k]; !ok {
					moved[k] = true
				}
			}
			if !moved[tag] {
				t.Fatalf("the mutation does not move %q", tag)
			}
			delete(moved, tag)
			for _, k := range w.also {
				delete(moved, k)
			}
			if len(moved) > 0 {
				t.Fatalf("the mutation also moves %v", moved)
			}
			if err := b.Validate(); err != nil {
				t.Logf("rejected: %v", err)
				return
			}
			ra, _, err := a.Execute()
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			rb, _, err := b.Execute()
			if err != nil {
				t.Fatalf("mutated: %v", err)
			}
			if ra == rb {
				t.Errorf("two valid Specs differing only in %s (%q vs %q) execute to the same row: the field is hashed and ignored\n%+v", tag, la[tag], lb[tag], ra)
			}
		})
	}
}
