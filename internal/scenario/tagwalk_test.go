package scenario

import (
	"encoding/json"
	"sort"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/lb"
	"provirt/internal/machine"
)

// No hashed key is accepted and ignored (ROADMAP aim 3). Every key of
// the content document (ContentDocument) is part of a point's address, so
// every one of them must be able to change what the point produces: for
// each key there is a witness — a valid Spec and a copy differing in
// the one field behind the key — whose copy is either refused or
// executes to a different Row. A key with no such pair names a field
// that mints distinct cache keys for identical results.
//
// Two keys are held to the opposite rule. env_policy is always
// "explicit" in the content document, whatever the Spec's policy; and
// checkpoint.dir, which the wire carries, is cleared, so two Specs
// differing only there share a hash and must share a row.

// witness changes the one field behind key on a valid base Spec. A
// witness keeps the name its field's line had in the hand-written
// canonical form Spec.Hash once hashed.
type witness struct {
	key    string
	base   func() Spec
	mutate func(*Spec)
}

// contentKeys flattens a JSON document to its leaf keys, dotted through
// objects, each with its value's bytes.
func contentKeys(t *testing.T, doc []byte) map[string]string {
	t.Helper()
	keys := map[string]string{}
	var walk func(prefix string, doc []byte)
	walk = func(prefix string, doc []byte) {
		var obj map[string]json.RawMessage
		if json.Unmarshal(doc, &obj) != nil {
			keys[prefix] = string(doc)
			return
		}
		for k, v := range obj {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, v)
		}
	}
	walk("", doc)
	return keys
}

func canonKeys(t *testing.T, sp Spec) map[string]string {
	t.Helper()
	canon, err := ContentDocument(&sp)
	if err != nil {
		t.Fatal(err)
	}
	return contentKeys(t, canon)
}

func shapeOf(nodes, procs, pes int) machine.Config {
	return machine.Config{Nodes: nodes, ProcsPerNode: procs, PEsPerProc: pes}
}

func emptyBase() Spec {
	return Spec{Machine: shapeOf(2, 1, 1), VPs: 4, Method: core.KindPIEglobals, Workload: "empty"}
}

// explicitBase runs method under the Bridges-2 environment spelled out,
// with whatever the method additionally needs switched on.
func explicitBase(method core.Kind, vps int) func() Spec {
	return func() Spec {
		sp := emptyBase()
		sp.Machine, sp.VPs, sp.Method = shapeOf(1, 1, 1), vps, method
		sp.EnvPolicy = EnvExplicit
		sp.Toolchain, sp.OS = core.Bridges2Env()
		sp.Toolchain.MPCPatched = true
		sp.OS.PatchedGlibc = true
		sp.OS.OldOrPatchedLinker = true
		return sp
	}
}

func jacobiBase() Spec {
	return Spec{Machine: shapeOf(1, 1, 2), VPs: 4, Method: core.KindPIEglobals, Workload: "jacobi", WorkloadParams: WorkloadParams{Quick: true}}
}

// ballastBase is fig8's point: one rank the rotate balancer moves.
func ballastBase() Spec {
	return Spec{Machine: shapeOf(2, 1, 1), VPs: 1, Method: core.KindPIEglobals, Workload: "ballast", Balancer: lb.RotateLB{}}
}

func adcircBase() Spec {
	return Spec{
		Machine: shapeOf(1, 1, 4), VPs: 16, Method: core.KindPIEglobals,
		Workload: "adcirc", WorkloadParams: WorkloadParams{Quick: true},
		Balancer: lb.GreedyRefineLB{},
	}
}

// supervisedBase is the harness's elastic job: the checkpointed kernel
// with room to shrink twice.
func supervisedBase() Spec {
	return Spec{
		Machine: shapeOf(4, 1, 2), VPs: 8, Method: core.KindPIEglobals, Workload: "checkpointed",
		Checkpoint: &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: "/scratch/walk", Interval: 32 * time.Millisecond},
	}
}

func churnBase() Spec {
	sp := supervisedBase()
	sp.Churn = &ft.ChurnSpec{
		Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond, MaxEvents: 2,
	}
	return sp
}

func rollingBase() Spec {
	sp := supervisedBase()
	sp.Churn = &ft.ChurnSpec{
		RollingEvery: 60 * time.Millisecond, RollingNodes: 1, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond,
	}
	return sp
}

func faultsBase() Spec {
	sp := supervisedBase()
	sp.Faults = &ft.FaultSpec{Seed: 3, MTBF: 120 * time.Millisecond, Horizon: time.Second}
	return sp
}

// populatedSpec sets every field the wire carries to a non-zero value,
// so its documents hold every key.
func populatedSpec() Spec {
	sp := faultsBase()
	sp.Machine.Seed = 5
	sp.Churn = &ft.ChurnSpec{
		Seed: 20, ArrivalEvery: 90 * time.Millisecond, EvictionEvery: 80 * time.Millisecond,
		Notice: 120 * time.Millisecond, Horizon: 200 * time.Millisecond,
		RollingEvery: 60 * time.Millisecond, RollingNodes: 1, MaxEvents: 2,
	}
	sp.WorkloadParams = WorkloadParams{Quick: true, Grid: 8, Iters: 2, HeapBytes: 1 << 20}
	sp.Balancer = lb.HierarchicalLB{PEsPerNode: 2}
	sp.Placement = []int{0, 1, 2, 3, 4, 5, 6, 7}
	sp.StackSize = 1 << 20
	env := explicitBase(sp.Method, sp.VPs)()
	sp.EnvPolicy, sp.Toolchain, sp.OS = env.EnvPolicy, env.Toolchain, env.OS
	return sp
}

var tagWitnesses = map[string]witness{
	"machine.nodes":          {"machine.nodes", emptyBase, func(s *Spec) { s.Machine.Nodes = 3 }},
	"machine.procs_per_node": {"machine.procs_per_node", emptyBase, func(s *Spec) { s.Machine.ProcsPerNode = 2 }},
	"machine.pes_per_proc":   {"machine.pes_per_proc", emptyBase, func(s *Spec) { s.Machine.PEsPerProc = 2 }},
	"machine.seed":           {"machine.seed", faultsBase, func(s *Spec) { s.Machine.Seed = 1 }},
	"vps":                    {"vps", emptyBase, func(s *Spec) { s.VPs = 8 }},
	"method":                 {"method", emptyBase, func(s *Spec) { s.Method = core.KindTLSglobals }},

	"env.toolchain.tls_seg_refs":   {"toolchain.supports_tls_seg_refs", explicitBase(core.KindTLSglobals, 4), func(s *Spec) { s.Toolchain.SupportsTLSSegRefs = false }},
	"env.toolchain.mpc":            {"toolchain.mpc_patched", explicitBase(core.KindMPCPrivatize, 4), func(s *Spec) { s.Toolchain.MPCPatched = false }},
	"env.toolchain.pie":            {"toolchain.pie", explicitBase(core.KindFSglobals, 4), func(s *Spec) { s.Toolchain.PIE = false }},
	"env.os.kind":                  {"os.kind", explicitBase(core.KindPIEglobals, 4), func(s *Spec) { s.OS.Kind = "macos" }},
	"env.os.glibc":                 {"os.glibc", explicitBase(core.KindPIPglobals, 4), func(s *Spec) { s.OS.Glibc = false }},
	"env.os.patched_glibc":         {"os.patched_glibc", explicitBase(core.KindPIPglobals, 16), func(s *Spec) { s.OS.PatchedGlibc = false }},
	"env.os.old_or_patched_linker": {"os.old_or_patched_linker", explicitBase(core.KindSwapglobals, 4), func(s *Spec) { s.OS.OldOrPatchedLinker = false }},
	"env.os.shared_fs":             {"os.shared_fs", explicitBase(core.KindFSglobals, 4), func(s *Spec) { s.OS.SharedFS = false }},

	"workload":            {"workload", emptyBase, func(s *Spec) { s.Workload = "hello" }},
	"workload.quick":      {"workload_params.quick", func() Spec { sp := emptyBase(); sp.Workload = "jacobi"; return sp }, func(s *Spec) { s.WorkloadParams.Quick = true }},
	"workload.grid":       {"workload_params.grid", jacobiBase, func(s *Spec) { s.WorkloadParams.Grid = 8 }},
	"workload.iters":      {"workload_params.iters", jacobiBase, func(s *Spec) { s.WorkloadParams.Iters = 2 }},
	"workload.heap_bytes": {"workload_params.heap_bytes", ballastBase, func(s *Spec) { s.WorkloadParams.HeapBytes = 1 << 20 }},
	// Whether the workload is told it has a balancer is derived from
	// the balancer, so dropping the balancer is what moves it.
	"workload.has_lb":       {"balancer", adcircBase, func(s *Spec) { s.Balancer = nil }},
	"balancer":              {"balancer", adcircBase, func(s *Spec) { s.Balancer = lb.RotateLB{} }},
	"balancer.pes_per_node": {"balancer_pes_per_node", func() Spec { sp := adcircBase(); sp.Balancer = lb.HierarchicalLB{PEsPerNode: 2}; return sp }, func(s *Spec) { s.Balancer = lb.HierarchicalLB{PEsPerNode: 4} }},

	"checkpoint.target":      {"checkpoint.target", churnBase, func(s *Spec) { s.Checkpoint.Target = ampi.TargetBuddy }},
	"checkpoint.interval_ns": {"checkpoint.interval_ns", churnBase, func(s *Spec) { s.Checkpoint.Interval = 16 * time.Millisecond }},

	"churn.seed":              {"churn.seed", churnBase, func(s *Spec) { s.Churn.Seed = 11 }},
	"churn.arrival_every_ns":  {"churn.arrival_every_ns", churnBase, func(s *Spec) { s.Churn.ArrivalEvery = 90 * time.Millisecond }},
	"churn.eviction_every_ns": {"churn.eviction_every_ns", churnBase, func(s *Spec) { s.Churn.EvictionEvery = 240 * time.Millisecond }},
	"churn.notice_ns":         {"churn.notice_ns", churnBase, func(s *Spec) { s.Churn.Notice = 0 }},
	"churn.horizon_ns":        {"churn.horizon_ns", churnBase, func(s *Spec) { s.Churn.Horizon = 40 * time.Millisecond }},
	"churn.max_events":        {"churn.max_events", churnBase, func(s *Spec) { s.Churn.MaxEvents = 1 }},
	"churn.rolling_every_ns":  {"churn.rolling_every_ns", rollingBase, func(s *Spec) { s.Churn.RollingEvery = 100 * time.Millisecond }},
	"churn.rolling_nodes":     {"churn.rolling_nodes", rollingBase, func(s *Spec) { s.Churn.RollingNodes = 2 }},

	"faults.seed":       {"faults.seed", faultsBase, func(s *Spec) { s.Faults.Seed = 5 }},
	"faults.mtbf_ns":    {"faults.mtbf_ns", faultsBase, func(s *Spec) { s.Faults.MTBF = 480 * time.Millisecond }},
	"faults.horizon_ns": {"faults.horizon_ns", faultsBase, func(s *Spec) { s.Faults.Horizon = 100 * time.Millisecond }},

	"placement":  {"placement", emptyBase, func(s *Spec) { s.Placement = []int{0, 0, 0, 1} }},
	"stack_size": {"stack_size", adcircBase, func(s *Spec) { s.StackSize = 2 << 20 }},
}

func TestEveryCanonicalTagChangesTheRowOrIsRejected(t *testing.T) {
	populated := populatedSpec()
	hashed := canonKeys(t, populated)
	wire, err := json.Marshal(populated)
	if err != nil {
		t.Fatal(err)
	}
	for key := range contentKeys(t, wire) {
		if _, ok := hashed[key]; !ok && key != "checkpoint.dir" {
			t.Errorf("wire key %q is not hashed", key)
		}
	}
	if _, ok := hashed["checkpoint.dir"]; ok {
		t.Error("the content document carries the checkpoint directory")
	}
	witnessed := map[string]bool{"env_policy": true}
	for name, w := range tagWitnesses {
		if _, ok := hashed[w.key]; !ok {
			t.Errorf("witness %s moves %q, which the content document does not hold", name, w.key)
		}
		witnessed[w.key] = true
	}
	for key := range hashed {
		if !witnessed[key] {
			t.Errorf("hashed key %q has no witness: nothing shows the field behind it is either rejected or changes the row", key)
		}
	}

	var names []string
	for name := range tagWitnesses {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := tagWitnesses[name]
		t.Run(name, func(t *testing.T) {
			a, b := w.base(), w.base()
			w.mutate(&b)
			if err := a.Validate(); err != nil {
				t.Fatalf("witness base is invalid: %v", err)
			}
			ka, kb := canonKeys(t, a), canonKeys(t, b)
			moved := map[string]bool{}
			for k := range ka {
				if ka[k] != kb[k] {
					moved[k] = true
				}
			}
			for k := range kb {
				if _, ok := ka[k]; !ok {
					moved[k] = true
				}
			}
			if !moved[w.key] {
				t.Fatalf("the mutation does not move %q", w.key)
			}
			delete(moved, w.key)
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
				t.Errorf("two valid Specs differing only in %s (%s vs %s) execute to the same row: the field is hashed and ignored\n%+v", w.key, ka[w.key], kb[w.key], ra)
			}
		})
	}

	t.Run("checkpoint.dir", func(t *testing.T) {
		a, b := faultsBase(), faultsBase()
		b.Checkpoint.Dir = "/elsewhere"
		ha, err := a.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hb, err := b.Hash(); err != nil || hb != ha {
			t.Fatalf("the checkpoint directory moved the hash: %s vs %s (%v)", ha, hb, err)
		}
		ra, _, err := a.Execute()
		if err != nil {
			t.Fatal(err)
		}
		rb, _, err := b.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb {
			t.Errorf("two Specs differing only in the checkpoint directory share a hash and execute to different rows:\n%+v\n%+v", ra, rb)
		}
	})

	t.Run("env_policy", func(t *testing.T) {
		for _, policy := range []EnvPolicy{EnvAdjust, EnvBridges2, EnvExplicit} {
			sp := emptyBase()
			sp.EnvPolicy = policy
			if got := canonKeys(t, sp)["env_policy"]; got != `"explicit"` {
				t.Errorf("policy %d: the content document says env_policy %s", policy, got)
			}
		}
	})
}
