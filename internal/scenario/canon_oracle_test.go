package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"provirt/internal/core"
)

// oldCanonical is the hand-written `tag=value` form Spec.Hash hashed
// before the content document replaced it, kept as a differential
// oracle: two Specs share a hash iff they share this form. The toolchain
// name line was frozen at Bridges-2's and no Spec field moved it, so it
// is written as the constant it was.
func oldCanonical(s *Spec) ([]byte, error) {
	if err := s.declarativeErr(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	line := func(tag string, format string, args ...any) {
		fmt.Fprintf(&b, tag+"="+format+"\n", args...)
	}
	line("canon", "%d", 1)
	line("machine.nodes", "%d", s.Machine.Nodes)
	line("machine.procs_per_node", "%d", s.Machine.ProcsPerNode)
	line("machine.pes_per_proc", "%d", s.Machine.PEsPerProc)
	line("machine.seed", "%d", s.Machine.Seed)
	line("vps", "%d", s.VPs)
	line("method", "%s", s.kind())
	tc, osEnv := s.env()
	line("env.toolchain.name", "%s", "gcc-10.2.0")
	line("env.toolchain.tls_seg_refs", "%t", tc.SupportsTLSSegRefs)
	line("env.toolchain.mpc", "%t", tc.MPCPatched)
	line("env.toolchain.pie", "%t", tc.PIE)
	line("env.os.kind", "%s", osEnv.Kind)
	line("env.os.glibc", "%t", osEnv.Glibc)
	line("env.os.patched_glibc", "%t", osEnv.PatchedGlibc)
	line("env.os.old_or_patched_linker", "%t", osEnv.OldOrPatchedLinker)
	line("env.os.shared_fs", "%t", osEnv.SharedFS)
	line("workload", "%s", s.Workload)
	line("workload.has_lb", "%t", s.Balancer != nil)
	line("workload.quick", "%t", s.WorkloadParams.Quick)
	if s.Balancer != nil {
		name, pes, err := balancerName(s.Balancer)
		if err != nil {
			return nil, err
		}
		line("balancer", "%s", name)
		line("balancer.pes_per_node", "%d", pes)
	} else {
		line("balancer", "")
		line("balancer.pes_per_node", "%d", 0)
	}
	if s.Checkpoint != nil {
		line("checkpoint.target", "%s", s.Checkpoint.Target)
		line("checkpoint.dir", "")
		line("checkpoint.interval_ns", "%d", int64(s.Checkpoint.Interval))
	} else {
		line("checkpoint.target", "")
		line("checkpoint.dir", "")
		line("checkpoint.interval_ns", "%d", 0)
	}
	if s.Churn != nil {
		line("churn.seed", "%d", s.Churn.Seed)
		line("churn.arrival_every_ns", "%d", int64(s.Churn.ArrivalEvery))
		line("churn.eviction_every_ns", "%d", int64(s.Churn.EvictionEvery))
		line("churn.notice_ns", "%d", int64(s.Churn.Notice))
		line("churn.horizon_ns", "%d", int64(s.Churn.Horizon))
		line("churn.rolling_every_ns", "%d", int64(s.Churn.RollingEvery))
		line("churn.rolling_nodes", "%d", s.Churn.RollingNodes)
		line("churn.max_events", "%d", s.Churn.MaxEvents)
	}
	if s.Faults != nil {
		line("faults.seed", "%d", s.Faults.Seed)
		line("faults.mtbf_ns", "%d", int64(s.Faults.MTBF))
		line("faults.horizon_ns", "%d", int64(s.Faults.Horizon))
	}
	placement := make([]string, len(s.Placement))
	for i, p := range s.Placement {
		placement[i] = fmt.Sprintf("%d", p)
	}
	line("placement", "%s", strings.Join(placement, ","))
	line("stack_size", "%d", s.StackSize)
	return b.Bytes(), nil
}

// agree fails unless a and b share a hash exactly when they share an
// old canonical form.
func agree(t *testing.T, name string, a, b Spec) {
	t.Helper()
	oa, err := oldCanonical(&a)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ob, err := oldCanonical(&b)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ha, err := a.Hash()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if sameOld, sameNew := bytes.Equal(oa, ob), ha == hb; sameOld != sameNew {
		t.Errorf("%s: old canonical forms equal %v, hashes equal %v\n%s\nvs\n%s", name, sameOld, sameNew, oa, ob)
	}
}

func TestHashAgreesWithOldCanonicalForm(t *testing.T) {
	// Every tag-walk witness pair, and the old line the witness is named
	// after moves.
	for name, w := range tagWitnesses {
		a, b := w.base(), w.base()
		w.mutate(&b)
		agree(t, name, a, b)
		oa, _ := oldCanonical(&a)
		ob, _ := oldCanonical(&b)
		tag := "\n" + name + "="
		if la, lb := oldLine(oa, tag), oldLine(ob, tag); la == lb {
			t.Errorf("witness %s does not move its old line (%q)", name, la)
		}
	}

	// The two labels: the checkpoint directory is cleared from the
	// content as its line was frozen, and the toolchain name the frozen
	// line stood for can no longer be written at all.
	a, b := populatedSpec(), populatedSpec()
	b.Checkpoint.Dir = "/elsewhere"
	agree(t, "checkpoint.dir", a, b)
	doc, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	named := bytes.Replace(doc, []byte(`"toolchain":{`), []byte(`"toolchain":{"name":"icc-2021",`), 1)
	var sp Spec
	if err := json.Unmarshal(named, &sp); err == nil || !strings.Contains(err.Error(), `"name"`) {
		t.Errorf("a document naming the toolchain: %v, want refused naming the key", err)
	}

	// EnvAdjust and the equivalent EnvExplicit.
	adjusted := DefaultSpec("empty")
	explicit := adjusted
	explicit.EnvPolicy = EnvExplicit
	explicit.Toolchain, explicit.OS = core.Bridges2Env()
	agree(t, "adjust vs explicit", adjusted, explicit)

	// Every FuzzSpecDecode seed, pairwise and against the Spec its own
	// content document decodes to.
	var seeds []Spec
	for _, doc := range specDecodeSeeds {
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err != nil {
			t.Fatalf("seed %s does not decode: %v", doc, err)
		}
		canon, err := sp.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		var content Spec
		if err := json.Unmarshal(canon, &content); err != nil {
			t.Fatalf("content document %s does not decode: %v", canon, err)
		}
		agree(t, "seed vs its content document "+doc, sp, content)
		seeds = append(seeds, sp)
	}
	for i := range seeds {
		for j := i + 1; j < len(seeds); j++ {
			agree(t, fmt.Sprintf("seeds %d and %d", i, j), seeds[i], seeds[j])
		}
	}
}

// oldLine returns the line of form starting at tag ("\nname="), or "".
func oldLine(form []byte, tag string) string {
	_, rest, ok := strings.Cut("\n"+string(form), tag)
	if !ok {
		return ""
	}
	line, _, _ := strings.Cut(rest, "\n")
	return tag + line
}
