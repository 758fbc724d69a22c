package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
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

// ContentDocument is the content document's bytes as json.Marshal
// writes them: the pre-image Hash must hash. It lives here so the tests
// outside the package can read it too.
func ContentDocument(sp *Spec) ([]byte, error) {
	var d lowered
	if err := sp.content(&d); err != nil {
		return nil, err
	}
	return json.Marshal(&d)
}

// Hash encodes into a reused buffer; its digest must be the SHA-256 of
// the content document as json.Marshal writes it, for every fuzz seed
// and every registered workload's default Spec.
func TestHashIsSHA256OfTheContentDocument(t *testing.T) {
	specs := map[string]Spec{"full": fullSpec()}
	for i, doc := range specDecodeSeeds {
		var sp Spec
		if err := json.Unmarshal([]byte(doc), &sp); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		specs[fmt.Sprintf("seed-%d", i)] = sp
	}
	for _, name := range WorkloadNames() {
		specs["default-"+name] = DefaultSpec(name)
	}
	for name, sp := range specs {
		canon, err := ContentDocument(&sp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(canon)
		if h, err := sp.Hash(); err != nil || h != hex.EncodeToString(sum[:]) {
			t.Errorf("%s: Hash %s (%v), want SHA-256 of %s", name, h, err, canon)
		}
	}
}

// fullSpec exercises every declarative field at once.
func fullSpec() Spec {
	return Spec{
		Machine:        machine.Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2, Seed: 7},
		VPs:            16,
		Method:         core.KindTLSglobals,
		EnvPolicy:      EnvAdjust,
		Workload:       "adcirc",
		WorkloadParams: WorkloadParams{Quick: true},
		Balancer:       lb.GreedyRefineLB{},
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
	explicit := fullSpec()
	explicit.EnvPolicy = EnvExplicit
	explicit.Toolchain, explicit.OS = core.Bridges2Env()
	explicit.OS.PatchedGlibc = true
	specs := map[string]Spec{"full": fullSpec(), "explicit": explicit}
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
	_, err := ContentDocument(&sp)
	if !errors.As(err, &nde) || len(nde.Fields) != 1 || nde.Fields[0] != "Tracer" {
		t.Fatalf("want NotDeclarativeError{Tracer}, got %v", err)
	}
}

// Golden hashes: the content document's bytes are the wire format's
// tags and field order, so a change to either moves these. That is
// allowed — the result store partitions by code version, so no hash is
// compared across builds — but it should be deliberate: update these
// in the change that moves them, and say why.
func TestSpecHashGolden(t *testing.T) {
	golden := map[string]string{
		"empty-default": "5aa25f2192d43e8a8057b78b95b7c0ad3518981d893790ecdb94761a73ab666b",
		"full":          "6f7cb9b7e9aa7e4c23bb1e7baaa3568d7b32687a7667e96ecd3acf604ac47149",
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
			canon, _ := ContentDocument(&sp)
			t.Errorf("%s: hash %s, want %s\ncontent document: %s", name, h, golden[name], canon)
		}
	}
}

// The content document resolves the environment, so an EnvAdjust Spec
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
	// The content document is the wire document: every key is a json
	// tag, so no Go field name of Spec or of a model type it carries
	// (toolchain, OS, checkpoint policy) may appear as a key.
	sp := fullSpec()
	sp.EnvPolicy = EnvExplicit
	sp.Toolchain, sp.OS = core.Bridges2Env()
	canon, err := ContentDocument(&sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, goName := range []string{"VPs", "Machine", "StackSize", "WorkloadParams", "EnvPolicy",
		"SupportsTLSSegRefs", "Kind", "SharedFS", "Target", "Interval"} {
		if strings.Contains(string(canon), `"`+goName+`"`) {
			t.Errorf("content document has Go field name %q as a key:\n%s", goName, canon)
		}
	}
}
