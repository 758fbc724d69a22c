package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// specDecodeSeeds are FuzzSpecDecode's seed documents.
var specDecodeSeeds = []string{
	// The scripts/serve_smoke.sh point.
	`{"workload":"empty","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"method":"pieglobals"}`,
	// Churn, a checkpoint policy and a balancer at once.
	`{"machine":{"nodes":2,"procs_per_node":2,"pes_per_proc":2,"seed":7},"vps":16,"method":"tlsglobals","env_policy":"adjust","workload":"adcirc","workload_params":{"quick":true},"balancer":"greedyrefine","checkpoint":{"target":"buddy","interval_ns":50000000},"churn":{"seed":7,"eviction_every_ns":20000000,"notice_ns":1000000000,"horizon_ns":400000000,"max_events":2},"placement":[0,1,2,3,4,5,6,7,0,1,2,3,4,5,6,7],"stack_size":1048576}`,
	everyKeySeed,
	// A stack size that wraps the allocator's bounds arithmetic.
	`{"workload":"empty","vps":4,"stack_size":18446744073709551615}`,
	// A machine the model cannot hold: 30 M PEs, and a product that wraps.
	`{"workload":"empty","vps":4,"machine":{"nodes":3000,"procs_per_node":100,"pes_per_proc":100}}`,
	`{"workload":"empty","vps":4,"machine":{"nodes":1000000,"procs_per_node":1000000,"pes_per_proc":1000000}}`,
	// A crash process, and a churn spec asking for an unbounded plan.
	`{"workload":"checkpointed","vps":6,"machine":{"nodes":3,"procs_per_node":1,"pes_per_proc":2},"method":"pieglobals","checkpoint":{"target":"fs","interval_ns":19000000},"faults":{"seed":3,"mtbf_ns":1,"horizon_ns":4611686018427387904},"churn":{"eviction_every_ns":1,"horizon_ns":4611686018427387904,"max_events":4611686018427387904}}`,
	// Validate once passed these and Build refused them: 14 PIPglobals
	// ranks placed in one of two processes, and a placement past the
	// machine's last PE.
	`{"workload":"empty","method":"pipglobals","vps":14,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"placement":[0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`,
	`{"workload":"empty","method":"tlsglobals","vps":2,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"placement":[0,5]}`,
	// An empty placement was refused, but encodes as none: its re-marshaled
	// document was valid.
	`{"vps":1,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"placement":[]}`,
	// The first point of fig5 (and of fig5scale, whose first point it
	// is), fig6, fig7, fig8, memory and table2.
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":8,"method":"none","env_policy":"adjust","workload":"empty"}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":2,"method":"none","env_policy":"adjust","workload":"ping"}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":4},"vps":4,"method":"none","env_policy":"adjust","workload":"jacobi","workload_params":{"grid":32,"iters":20}}`,
	`{"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"vps":1,"method":"tlsglobals","env_policy":"adjust","workload":"ballast","workload_params":{"heap_bytes":1048576},"balancer":"rotate"}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":1,"method":"tlsglobals","env_policy":"adjust","workload":"ballast"}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":1,"method":"pieglobals","env_policy":"adjust","workload":"adcirc"}`,
}

// everyKeySeed holds every key the wire carries: it is populatedSpec's
// document (TestEveryKeySeedHoldsEveryWireKey).
const everyKeySeed = `{"machine":{"nodes":4,"procs_per_node":1,"pes_per_proc":2,"seed":5},"vps":8,"method":"pieglobals","env_policy":"explicit","toolchain":{"supports_tls_seg_refs":true,"mpc_patched":true,"pie":true},"os":{"kind":"linux","glibc":true,"patched_glibc":true,"old_or_patched_linker":true,"shared_fs":true},"workload":"checkpointed","workload_params":{"quick":true,"grid":8,"iters":2,"heap_bytes":1048576},"balancer":"greedyrefine","checkpoint":{"target":"fs","interval_ns":32000000},"churn":{"seed":20,"arrival_every_ns":90000000,"eviction_every_ns":80000000,"notice_ns":120000000,"horizon_ns":200000000,"rolling_every_ns":60000000,"rolling_nodes":1,"max_events":2},"faults":{"seed":3,"mtbf_ns":120000000,"horizon_ns":1000000000},"placement":[0,1,2,3,4,5,6,7],"stack_size":1048576}`

// refusedSpecSeeds are seed documents that must be refused: a
// parameter the workload does not read, a balancer the wire does not
// name, and a key no Spec field carries, which does not even lower.
var refusedSpecSeeds = []string{
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":2,"workload":"jacobi","workload_params":{"heap_bytes":1048576}}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":2,"workload":"adcirc","workload_params":{"grid":8}}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2},"vps":4,"workload":"adcirc","balancer":"greedy"}`,
	`{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2},"vps":4,"workload":"adcirc","balancer_pes_per_node":7}`,
}

// FuzzSpecDecode feeds the wire codec arbitrary bytes. Whatever decodes
// must validate and hash without panicking, and a Spec that hashes must
// survive the wire: re-marshaled and decoded again — and decoded from
// its own content document — it has the same digest and the same
// validity, so a cache entry can never be reached by one encoding of a
// point and missed by another. And what Validate passes, the engine
// builds: a valid document never becomes a 200 whose stream carries a
// build error. The hash is the SHA-256 of that content document.
func FuzzSpecDecode(f *testing.F) {
	for _, doc := range append(specDecodeSeeds, refusedSpecSeeds...) {
		f.Add([]byte(doc))
	}
	// Every point of the example documents.
	examples, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example documents: %v", err)
	}
	for _, path := range examples {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		docs, err := DecodeRequest(bytes.NewReader(body), nil)
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		for _, d := range docs {
			point, err := json.Marshal(d)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(point)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		if json.Unmarshal(data, &sp) != nil {
			return
		}
		valid := sp.Validate() == nil
		hash, err := sp.Hash()
		if err != nil {
			return
		}
		doc, err := json.Marshal(&sp)
		if err != nil {
			t.Fatalf("hashed Spec does not marshal: %v\ninput: %s", err, data)
		}
		var back Spec
		if err := json.Unmarshal(doc, &back); err != nil {
			t.Fatalf("re-marshaled Spec does not decode: %v\ndoc: %s", err, doc)
		}
		if h, err := back.Hash(); err != nil || h != hash {
			t.Fatalf("hash moved across the wire: %s -> %s (%v)\ndoc: %s", hash, h, err, doc)
		}
		if (back.Validate() == nil) != valid {
			t.Fatalf("validity moved across the wire (was valid: %v)\ndoc: %s", valid, doc)
		}
		// The content document is a fixed point: the bytes that were
		// hashed decode to a Spec with the same hash and validity.
		canon, err := ContentDocument(&sp)
		if err != nil {
			t.Fatalf("hashed Spec has no content document: %v", err)
		}
		if sum := sha256.Sum256(canon); hex.EncodeToString(sum[:]) != hash {
			t.Fatalf("hash %s is not the SHA-256 of the content document\ncontent: %s", hash, canon)
		}
		var content Spec
		if err := json.Unmarshal(canon, &content); err != nil {
			t.Fatalf("content document does not decode: %v\ncontent: %s", err, canon)
		}
		if h, err := content.Hash(); err != nil || h != hash {
			t.Fatalf("hash moved through the content document: %s -> %s (%v)\ncontent: %s", hash, h, err, canon)
		}
		if (content.Validate() == nil) != valid {
			t.Fatalf("validity moved through the content document (was valid: %v)\ncontent: %s", valid, canon)
		}
		// Small bare points only: a supervised run builds its worlds
		// inside the supervisor, and how much stack fits beside a method's
		// own allocations is the rank heap's to refuse, not Validate's
		// (TestValidateStackSizeBeyondRankRange).
		if _, known := LookupWorkload(sp.Workload); valid && known && !sp.supervised() && sp.VPs <= 64 && sp.StackSize <= 1<<30 {
			if _, err := sp.Build(); err != nil {
				t.Fatalf("Validate passed a Spec that does not build: %v\ndoc: %s", err, doc)
			}
		}
	})
}

func TestRefusedSeedsAreRefused(t *testing.T) {
	for _, doc := range refusedSpecSeeds {
		var sp Spec
		if json.Unmarshal([]byte(doc), &sp) == nil && sp.Validate() == nil {
			t.Errorf("accepted %s", doc)
		}
	}
}
