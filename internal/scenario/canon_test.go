package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// fullSpec exercises every declarative field at once.
func fullSpec() Spec {
	return Spec{
		Machine:        machine.Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2, Seed: 7},
		VPs:            16,
		Method:         core.KindTLSglobals,
		EnvPolicy:      EnvAdjust,
		Tweaks:         EnvTweaks{PatchedGlibc: true},
		Workload:       "adcirc",
		WorkloadParams: WorkloadParams{Quick: true},
		Balancer:       lb.HierarchicalLB{PEsPerNode: 4},
		Checkpoint: &ampi.CheckpointPolicy{
			Target:   ampi.TargetBuddy,
			Interval: sim.Time(50 * time.Millisecond),
		},
		Placement: []int{0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7},
		StackSize: 1 << 20,
	}
}

// Satellite: marshal -> unmarshal -> re-marshal is byte-identical and
// Validate passes on the round-tripped value, for every registered
// workload's default Spec (plus a fully-populated Spec).
func TestSpecJSONRoundTrip(t *testing.T) {
	specs := map[string]Spec{"full": fullSpec()}
	for _, name := range WorkloadNames() {
		specs["default-"+name] = DefaultSpec(name)
	}
	for name, sp := range specs {
		first, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Spec
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s: round trip not byte-identical:\n first: %s\nsecond: %s", name, first, second)
		}
		if err := back.Validate(); err != nil {
			t.Errorf("%s: round-tripped spec fails Validate: %v", name, err)
		}
		h1, err := sp.Hash()
		if err != nil {
			t.Fatalf("%s: hash: %v", name, err)
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatalf("%s: round-tripped hash: %v", name, err)
		}
		if h1 != h2 {
			t.Errorf("%s: hash changed across round trip: %s vs %s", name, h1, h2)
		}
	}
}

func TestSpecUnmarshalRejectsUnknownFields(t *testing.T) {
	var sp Spec
	err := json.Unmarshal([]byte(`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":4,"method":"pieglobals","env_policy":"adjust","workloadd":"empty"}`), &sp)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestSpecUnmarshalBadValues(t *testing.T) {
	cases := map[string]string{
		"method":     `{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":4,"method":"nope","env_policy":"adjust"}`,
		"env_policy": `{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":4,"method":"pieglobals","env_policy":"nope"}`,
		"balancer":   `{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":4,"method":"pieglobals","env_policy":"adjust","balancer":"nope"}`,
		"checkpoint": `{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":4,"method":"pieglobals","env_policy":"adjust","checkpoint":{"target":"nope"}}`,
	}
	for name, doc := range cases {
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err == nil {
			t.Errorf("%s: bad value accepted", name)
		}
	}
}

func TestSpecMarshalRejectsNonDeclarative(t *testing.T) {
	sp := DefaultSpec("empty")
	sp.Tracer = trace.NewRecorder()
	if _, err := json.Marshal(sp); err == nil {
		t.Fatal("non-declarative spec marshaled")
	}
	if _, err := sp.Hash(); err == nil {
		t.Fatal("non-declarative spec hashed")
	}
	var nde *NotDeclarativeError
	_, err := sp.Canonical()
	if !errors.As(err, &nde) || len(nde.Fields) != 1 || nde.Fields[0] != "Tracer" {
		t.Fatalf("want NotDeclarativeError{Tracer}, got %v", err)
	}
}

// Golden hashes: the canonical encoding is hand-written field by
// field, so renaming or reordering Spec's Go fields cannot change
// these. If this test fails, the canonical *format* changed — that
// invalidates every cached result keyed by an old hash, so bump the
// canon version line deliberately rather than silently.
func TestSpecHashGolden(t *testing.T) {
	golden := map[string]string{
		"empty-default": "6a6c7c453ed6d6d604787cdc2e52f7bbef0839a14033077166ea891aa1fe071c",
		"full":          "5bf5cb8e117dd6491e1748d462ae86a9242bfb5722a77492b733d666e30b9956",
	}

	specs := map[string]Spec{
		"empty-default": DefaultSpec("empty"),
		"full":          fullSpec(),
	}
	for name, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h != golden[name] {
			canon, _ := sp.Canonical()
			t.Errorf("%s: hash %s, want %s\ncanonical form:\n%s", name, h, golden[name], canon)
		}
	}
}

// The canonical form resolves the environment, so an EnvAdjust Spec
// and the equivalent EnvExplicit Spec are the same content.
func TestSpecHashSemanticEquivalence(t *testing.T) {
	adjusted := DefaultSpec("empty")
	tc, osEnv := core.Bridges2Env()
	explicit := adjusted
	explicit.EnvPolicy = EnvExplicit
	explicit.Toolchain = tc
	explicit.OS = osEnv

	ha, err := adjusted.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != he {
		t.Errorf("EnvAdjust and equivalent EnvExplicit hash differently: %s vs %s", ha, he)
	}

	other := adjusted
	other.VPs = 8
	ho, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ho == ha {
		t.Error("different VPs hash identically")
	}
}

func TestDefaultSpecValidates(t *testing.T) {
	for _, name := range WorkloadNames() {
		sp := DefaultSpec(name)
		if err := sp.Validate(); err != nil {
			t.Errorf("DefaultSpec(%q): %v", name, err)
		}
	}
}

func TestCanonicalMentionsNoGoFieldNames(t *testing.T) {
	// The canonical form must not be derived from Go reflection: a
	// struct field rename would then change hashes. Cheap guard: the
	// encoding uses lowercase tags, never the exported field names.
	sp := fullSpec()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	for _, goName := range []string{"VPs=", "Machine.", "StackSize", "WorkloadParams", "EnvPolicy"} {
		if strings.Contains(string(canon), goName) {
			t.Errorf("canonical form leaks Go field name %q:\n%s", goName, canon)
		}
	}
}
