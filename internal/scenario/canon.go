// The wire codec and content addressing for Specs.
//
// A Spec whose fields are all *declarative* — expressible as data, no
// injected Go values — can be written to JSON, read back, and hashed,
// and one document does all three. MarshalJSON/UnmarshalJSON speak the
// wire document (Document) the serve API accepts and the launchers emit; it
// round-trips byte-identically (marshal → unmarshal → re-marshal
// reproduces the same bytes). Hash is SHA-256 over the *content*
// document (content): the same encoder's output for the Spec with its
// environment resolved (env_policy "explicit" plus the toolchain and OS
// the run executes under) and the checkpoint directory, a label no run
// reads, cleared. So an EnvAdjust Spec and the equivalent EnvExplicit
// Spec are the same content, and two Specs differing only in where
// their snapshots are filed share a hash and a row.
//
// The content document's bytes follow the json tags and the field
// order, so changing either moves every hash. That is safe: the result
// store partitions entries by the build's code version, so no hash is
// compared across builds.

package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/lb"
	"provirt/internal/machine"
)

// NotDeclarativeError reports Spec fields that hold injected Go values
// (programs, tracers...) and therefore cannot be
// serialized or hashed.
type NotDeclarativeError struct {
	Fields []string
}

func (e *NotDeclarativeError) Error() string {
	return "scenario: spec is not declarative: " + strings.Join(e.Fields, ", ") +
		" cannot be serialized"
}

// declarativeErr returns nil when every Spec field is expressible as
// data, else a NotDeclarativeError naming the offenders.
func (s *Spec) declarativeErr() error {
	var fields []string
	if s.Program != nil {
		fields = append(fields, "Program")
	}
	if s.Tracer != nil {
		fields = append(fields, "Tracer")
	}
	if s.Trigger != nil {
		fields = append(fields, "Trigger")
	}
	if s.Restart != nil {
		fields = append(fields, "Restart")
	}
	if s.Machine.Cost != nil {
		fields = append(fields, "Machine.Cost")
	}
	if s.Balancer != nil {
		if _, _, err := balancerName(s.Balancer); err != nil {
			fields = append(fields, "Balancer")
		}
	}
	if len(fields) > 0 {
		return &NotDeclarativeError{Fields: fields}
	}
	return nil
}

// balancerName maps a strategy instance back to its ParseBalancer
// name (and the hierarchical strategy's node-grouping parameter).
func balancerName(b lb.Strategy) (name string, pesPerNode int, err error) {
	switch v := b.(type) {
	case lb.GreedyLB:
		return "greedy", 0, nil
	case lb.GreedyRefineLB:
		return "greedyrefine", 0, nil
	case lb.HierarchicalLB:
		return "hierarchical", v.PEsPerNode, nil
	case lb.RotateLB:
		return "rotate", 0, nil
	case lb.NullLB:
		return "null", 0, nil
	default:
		return "", 0, fmt.Errorf("scenario: balancer %T has no registered name", b)
	}
}

// envPolicyName maps the policy to its wire name.
func envPolicyName(p EnvPolicy) (string, error) {
	switch p {
	case EnvAdjust:
		return "adjust", nil
	case EnvBridges2:
		return "bridges2", nil
	case EnvExplicit:
		return "explicit", nil
	default:
		return "", fmt.Errorf("scenario: unknown env policy %d", int(p))
	}
}

// parseEnvPolicy is envPolicyName's inverse; the empty string selects
// the default policy (adjust).
func parseEnvPolicy(s string) (EnvPolicy, error) {
	switch s {
	case "", "adjust":
		return EnvAdjust, nil
	case "bridges2":
		return EnvBridges2, nil
	case "explicit":
		return EnvExplicit, nil
	default:
		return 0, fmt.Errorf("scenario: unknown env policy %q (want adjust, bridges2, or explicit)", s)
	}
}

// Document is the wire document; decode it with DisallowUnknownFields
// and lower it with Spec. Field tags are the format; Go names are
// incidental. Optional sub-objects are pointers with omitempty so a
// zero Spec marshals small and round-trips byte-identically. Every
// sub-object but the machine is a model type carrying its own tags;
// machine.Config also holds the cost model, which no document can say.
type Document struct {
	Machine    machineDoc             `json:"machine"`
	VPs        int                    `json:"vps"`
	Method     string                 `json:"method"`
	EnvPolicy  string                 `json:"env_policy"`
	Toolchain  *core.Toolchain        `json:"toolchain,omitempty"`
	OS         *core.OS               `json:"os,omitempty"`
	Workload   string                 `json:"workload,omitempty"`
	Params     *WorkloadParams        `json:"workload_params,omitempty"`
	Balancer   string                 `json:"balancer,omitempty"`
	BalancerPE int                    `json:"balancer_pes_per_node,omitempty"`
	Checkpoint *ampi.CheckpointPolicy `json:"checkpoint,omitempty"`
	Churn      *ft.ChurnSpec          `json:"churn,omitempty"`
	Faults     *ft.FaultSpec          `json:"faults,omitempty"`
	Placement  []int                  `json:"placement,omitempty"`
	StackSize  uint64                 `json:"stack_size,omitempty"`
}

// lowered is a Spec's Document plus what its optional sub-objects point
// at, so lowering allocates nothing past it; it encodes as the Document.
type lowered struct {
	Document
	tc     core.Toolchain
	os     core.OS
	params WorkloadParams
	ck     ampi.CheckpointPolicy
}

type machineDoc struct {
	Nodes        int    `json:"nodes"`
	ProcsPerNode int    `json:"procs_per_node"`
	PEsPerProc   int    `json:"pes_per_proc"`
	Seed         uint64 `json:"seed,omitempty"`
}

// nonZero copies v into *store and returns store, or nil for the zero
// value, so the sub-object is omitted. A copy, not a pointer into the
// Spec: that would move the whole Spec to the heap on every marshal.
func nonZero[T comparable](store *T, v T) *T {
	var zero T
	if v == zero {
		return nil
	}
	*store = v
	return store
}

// doc lowers the Spec into d, its wire document, rejecting
// non-declarative Specs.
func (s *Spec) doc(d *lowered) error {
	if err := s.declarativeErr(); err != nil {
		return err
	}
	policy, err := envPolicyName(s.EnvPolicy)
	if err != nil {
		return err
	}
	d.Document = Document{
		Churn:  s.Churn,
		Faults: s.Faults,
		Machine: machineDoc{
			Nodes:        s.Machine.Nodes,
			ProcsPerNode: s.Machine.ProcsPerNode,
			PEsPerProc:   s.Machine.PEsPerProc,
			Seed:         s.Machine.Seed,
		},
		VPs:       s.VPs,
		Method:    s.Method.String(),
		EnvPolicy: policy,
		Workload:  s.Workload,
		Placement: s.Placement,
		StackSize: s.StackSize,
	}
	d.Toolchain, d.OS = nonZero(&d.tc, s.Toolchain), nonZero(&d.os, s.OS)
	d.Params = nonZero(&d.params, s.WorkloadParams)
	if s.Balancer != nil {
		name, pes, err := balancerName(s.Balancer)
		if err != nil {
			return err
		}
		d.Balancer, d.BalancerPE = name, pes
	}
	if s.Checkpoint != nil {
		d.ck = *s.Checkpoint
		d.Checkpoint = &d.ck
	}
	return nil
}

// MarshalJSON encodes the declarative Spec as its wire document. Specs
// holding injected Go values (Program, Tracer, Trigger,
// Restart, a custom cost model, an unregistered balancer) return a
// *NotDeclarativeError.
func (s Spec) MarshalJSON() ([]byte, error) {
	var d lowered
	if err := s.doc(&d); err != nil {
		return nil, err
	}
	return json.Marshal(&d)
}

// UnmarshalJSON strict-decodes one wire document and lowers it
// (Document.Spec). Unknown fields are errors, so a typoed document
// fails loudly instead of silently running the defaults.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var d Document
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("scenario: spec document: %w", err)
	}
	var err error
	*s, err = d.Spec()
	return err
}

// Spec lowers the document, resolving the method, environment policy
// and balancer names; an unknown name is an error.
func (d *Document) Spec() (Spec, error) {
	policy, err := parseEnvPolicy(d.EnvPolicy)
	if err != nil {
		return Spec{}, err
	}
	var kind core.Kind
	if d.Method != "" {
		kind, err = core.ParseKind(d.Method)
		if err != nil {
			return Spec{}, err
		}
	}
	out := Spec{
		Checkpoint: d.Checkpoint,
		Churn:      d.Churn,
		Faults:     d.Faults,
		Machine: machine.Config{
			Nodes:        d.Machine.Nodes,
			ProcsPerNode: d.Machine.ProcsPerNode,
			PEsPerProc:   d.Machine.PEsPerProc,
			Seed:         d.Machine.Seed,
		},
		VPs:       d.VPs,
		Method:    kind,
		EnvPolicy: policy,
		Workload:  d.Workload,
		StackSize: d.StackSize,
	}
	// An empty placement decodes as none, the way it encodes.
	if len(d.Placement) > 0 {
		out.Placement = d.Placement
	}
	if d.Toolchain != nil {
		out.Toolchain = *d.Toolchain
	}
	if d.OS != nil {
		out.OS = *d.OS
	}
	if d.Params != nil {
		out.WorkloadParams = *d.Params
	}
	if d.BalancerPE != 0 && d.Balancer != "hierarchical" {
		return Spec{}, errors.New("scenario: balancer_pes_per_node is read only by the hierarchical balancer")
	}
	if d.Balancer != "" {
		b, err := ParseBalancer(d.Balancer, d.BalancerPE)
		if err != nil {
			return Spec{}, err
		}
		out.Balancer = b
	}
	return out, nil
}

// content lowers the Spec into d, its content document (the hashing
// pre-image): the wire document with the environment resolved and the
// checkpoint directory cleared (see the top of this file). Decoded, it
// is a Spec with the same hash and the same validity.
func (s *Spec) content(d *lowered) error {
	if err := s.doc(d); err != nil {
		return err
	}
	tc, osEnv := s.env()
	d.EnvPolicy = "explicit"
	d.Toolchain, d.OS = nonZero(&d.tc, tc), nonZero(&d.os, osEnv)
	if d.Checkpoint != nil {
		d.Checkpoint.Dir = ""
	}
	return nil
}

// hashState is what Hash reuses through hashStates: the content
// document and the buffer it is encoded into.
type hashState struct {
	doc lowered
	buf bytes.Buffer
}

var hashStates = sync.Pool{New: func() any { return new(hashState) }}

// Hash returns the hex SHA-256 of the content document: the Spec's
// content address. Because every run is a pure function of its
// declarative Spec, two Specs with equal hashes produce bit-identical
// output (for one build of the code — pair the hash with a code
// version when caching across builds).
func (s *Spec) Hash() (string, error) {
	h := hashStates.Get().(*hashState)
	defer hashStates.Put(h)
	h.buf.Reset()
	if err := s.content(&h.doc); err != nil {
		return "", err
	}
	if err := json.NewEncoder(&h.buf).Encode(&h.doc); err != nil {
		return "", err
	}
	// Encode's trailing newline is not in json.Marshal's pre-image.
	sum := sha256.Sum256(h.buf.Bytes()[:h.buf.Len()-1])
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
}

// DefaultSpec returns a small, valid Spec running the named registered
// workload: one single-PE node, four virtual ranks, PIEglobals, quick
// problem size. It is the example document `GET /v1/experiments`
// serves and the seed Spec tests round-trip.
func DefaultSpec(workload string) Spec {
	return Spec{
		Machine:        machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:            4,
		Method:         core.KindPIEglobals,
		Workload:       workload,
		WorkloadParams: WorkloadParams{Quick: true},
	}
}
