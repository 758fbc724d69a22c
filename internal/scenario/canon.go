// Canonical encoding and content addressing for Specs.
//
// A Spec whose fields are all *declarative* — expressible as data, no
// injected Go values — can be written to JSON, read back, and hashed.
// Two encodings live here and they serve different masters:
//
//   - The JSON document (MarshalJSON/UnmarshalJSON) is the wire format
//     the serve API accepts and the launchers emit. It is stable,
//     human-writable, and round-trips byte-identically: marshal →
//     unmarshal → re-marshal reproduces the same bytes.
//   - The canonical form (Canonical) is the hashing pre-image: a flat
//     list of `tag=value` lines appended in a fixed, hand-written
//     order. Because every line is written explicitly, renaming or
//     reordering the Go struct fields of Spec cannot change the bytes
//     (pinned by a golden hash test). Hash is SHA-256 over it.
//
// The canonical form captures exactly the fields that determine a
// run's output. The environment is hashed *resolved* (after EnvPolicy
// and Tweaks are applied), so an EnvAdjust Spec and the equivalent
// EnvExplicit Spec are the same content.

package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
)

// NotDeclarativeError reports Spec fields that hold injected Go values
// (programs, method instances, tracers...) and therefore cannot be
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
	if s.MethodImpl != nil {
		fields = append(fields, "MethodImpl")
	}
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

// The wire document. Field tags are the format; Go names are
// incidental. Optional sub-objects are pointers with omitempty so a
// zero Spec marshals small and round-trips byte-identically. The
// sub-objects that are declarative data already (tweaks, workload
// parameters, churn, faults) carry their tags on their own types.
type specDoc struct {
	Machine    machineDoc      `json:"machine"`
	VPs        int             `json:"vps"`
	Method     string          `json:"method"`
	EnvPolicy  string          `json:"env_policy"`
	Tweaks     *EnvTweaks      `json:"tweaks,omitempty"`
	Toolchain  *toolchainDoc   `json:"toolchain,omitempty"`
	OS         *osDoc          `json:"os,omitempty"`
	Workload   string          `json:"workload,omitempty"`
	Params     *WorkloadParams `json:"workload_params,omitempty"`
	Balancer   string          `json:"balancer,omitempty"`
	BalancerPE int             `json:"balancer_pes_per_node,omitempty"`
	Checkpoint *checkpointDoc  `json:"checkpoint,omitempty"`
	Churn      *ft.ChurnSpec   `json:"churn,omitempty"`
	Faults     *ft.FaultSpec   `json:"faults,omitempty"`
	Placement  []int           `json:"placement,omitempty"`
	StackSize  uint64          `json:"stack_size,omitempty"`
}

type machineDoc struct {
	Nodes        int    `json:"nodes"`
	ProcsPerNode int    `json:"procs_per_node"`
	PEsPerProc   int    `json:"pes_per_proc"`
	Seed         uint64 `json:"seed,omitempty"`
}

type toolchainDoc struct {
	Name               string `json:"name,omitempty"`
	SupportsTLSSegRefs bool   `json:"supports_tls_seg_refs,omitempty"`
	MPCPatched         bool   `json:"mpc_patched,omitempty"`
	PIE                bool   `json:"pie,omitempty"`
}

type osDoc struct {
	Kind               string `json:"kind,omitempty"`
	Glibc              bool   `json:"glibc,omitempty"`
	PatchedGlibc       bool   `json:"patched_glibc,omitempty"`
	OldOrPatchedLinker bool   `json:"old_or_patched_linker,omitempty"`
	SharedFS           bool   `json:"shared_fs,omitempty"`
}

type checkpointDoc struct {
	Target     string `json:"target"`
	Dir        string `json:"dir,omitempty"`
	IntervalNs int64  `json:"interval_ns,omitempty"`
}

// doc lowers the Spec to its wire document, rejecting non-declarative
// Specs.
func (s *Spec) doc() (*specDoc, error) {
	if err := s.declarativeErr(); err != nil {
		return nil, err
	}
	policy, err := envPolicyName(s.EnvPolicy)
	if err != nil {
		return nil, err
	}
	d := &specDoc{
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
	// The sub-objects are copied, not pointed at: a pointer into s would
	// move the whole Spec to the heap on every marshal.
	if s.Tweaks != (EnvTweaks{}) {
		tweaks := s.Tweaks
		d.Tweaks = &tweaks
	}
	if s.Toolchain != (core.Toolchain{}) {
		d.Toolchain = &toolchainDoc{
			Name:               s.Toolchain.Name,
			SupportsTLSSegRefs: s.Toolchain.SupportsTLSSegRefs,
			MPCPatched:         s.Toolchain.MPCPatched,
			PIE:                s.Toolchain.PIE,
		}
	}
	if s.OS != (core.OS{}) {
		d.OS = &osDoc{
			Kind:               s.OS.Kind,
			Glibc:              s.OS.Glibc,
			PatchedGlibc:       s.OS.PatchedGlibc,
			OldOrPatchedLinker: s.OS.OldOrPatchedLinker,
			SharedFS:           s.OS.SharedFS,
		}
	}
	if s.WorkloadParams != (WorkloadParams{}) {
		params := s.WorkloadParams
		d.Params = &params
	}
	if s.Balancer != nil {
		name, pes, err := balancerName(s.Balancer)
		if err != nil {
			return nil, err
		}
		d.Balancer, d.BalancerPE = name, pes
	}
	if s.Checkpoint != nil {
		d.Checkpoint = &checkpointDoc{
			Target:     s.Checkpoint.Target.String(),
			Dir:        s.Checkpoint.Dir,
			IntervalNs: int64(s.Checkpoint.Interval),
		}
	}
	return d, nil
}

// MarshalJSON encodes the declarative Spec as its wire document. Specs
// holding injected Go values (Program, MethodImpl, Tracer, Trigger,
// Restart, a custom cost model, an unregistered balancer) return a
// *NotDeclarativeError.
func (s Spec) MarshalJSON() ([]byte, error) {
	d, err := s.doc()
	if err != nil {
		return nil, err
	}
	return json.Marshal(d)
}

// UnmarshalJSON decodes the wire document into the Spec. Unknown
// fields are errors, so a typoed document fails loudly instead of
// silently running the defaults.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var d specDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return fmt.Errorf("scenario: spec document: %w", err)
	}
	policy, err := parseEnvPolicy(d.EnvPolicy)
	if err != nil {
		return err
	}
	var kind core.Kind
	if d.Method != "" {
		kind, err = core.ParseKind(d.Method)
		if err != nil {
			return err
		}
	}
	out := Spec{
		Churn:  d.Churn,
		Faults: d.Faults,
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
		Placement: d.Placement,
		StackSize: d.StackSize,
	}
	if d.Tweaks != nil {
		out.Tweaks = *d.Tweaks
	}
	if d.Toolchain != nil {
		out.Toolchain = core.Toolchain{
			Name:               d.Toolchain.Name,
			SupportsTLSSegRefs: d.Toolchain.SupportsTLSSegRefs,
			MPCPatched:         d.Toolchain.MPCPatched,
			PIE:                d.Toolchain.PIE,
		}
	}
	if d.OS != nil {
		out.OS = core.OS{
			Kind:               d.OS.Kind,
			Glibc:              d.OS.Glibc,
			PatchedGlibc:       d.OS.PatchedGlibc,
			OldOrPatchedLinker: d.OS.OldOrPatchedLinker,
			SharedFS:           d.OS.SharedFS,
		}
	}
	if d.Params != nil {
		out.WorkloadParams = *d.Params
	}
	if d.Balancer != "" {
		b, err := ParseBalancer(d.Balancer, d.BalancerPE)
		if err != nil {
			return err
		}
		out.Balancer = b
	}
	if d.Checkpoint != nil {
		var target ampi.CheckpointTarget
		switch d.Checkpoint.Target {
		case "fs":
			target = ampi.TargetFS
		case "buddy":
			target = ampi.TargetBuddy
		default:
			return fmt.Errorf("scenario: unknown checkpoint target %q (want fs or buddy)", d.Checkpoint.Target)
		}
		out.Checkpoint = &ampi.CheckpointPolicy{
			Target:   target,
			Dir:      d.Checkpoint.Dir,
			Interval: sim.Time(d.Checkpoint.IntervalNs),
		}
	}
	*s = out
	return nil
}

// Canonical returns the hashing pre-image: one `tag=value` line per
// output-determining field, in a fixed order that is independent of
// the Go struct layout. The environment is written *resolved* (after
// EnvPolicy and Tweaks) — see the package comment at the top of this
// file.
//
// The leading version line guards the format itself: if the canonical
// encoding ever has to change shape, bumping it invalidates every old
// hash instead of silently colliding with them.
func (s *Spec) Canonical() ([]byte, error) {
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
	// The toolchain's name and the checkpoint directory are labels — no
	// run reads either — so they are not content, and two Specs that
	// differ only there share a hash and a row. Their lines stay, frozen
	// at what the golden hashes saw, because dropping a line would move
	// every hash.
	bridges2, _ := core.Bridges2Env()
	line("env.toolchain.name", "%s", bridges2.Name)
	line("env.toolchain.tls_seg_refs", "%t", tc.SupportsTLSSegRefs)
	line("env.toolchain.mpc", "%t", tc.MPCPatched)
	line("env.toolchain.pie", "%t", tc.PIE)
	line("env.os.kind", "%s", osEnv.Kind)
	line("env.os.glibc", "%t", osEnv.Glibc)
	line("env.os.patched_glibc", "%t", osEnv.PatchedGlibc)
	line("env.os.old_or_patched_linker", "%t", osEnv.OldOrPatchedLinker)
	line("env.os.shared_fs", "%t", osEnv.SharedFS)
	line("workload", "%s", s.Workload)
	// Derived, like the environment: what the workload is told is
	// whether the Spec has a balancer, so that is what is hashed.
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
	// Churn and fault lines appear only when configured: Specs without
	// them keep the exact canonical bytes (and hashes) they had before
	// supervision existed.
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

// Hash returns the hex SHA-256 of the canonical form: the Spec's
// content address. Because every run is a pure function of its
// declarative Spec, two Specs with equal hashes produce bit-identical
// output (for one build of the code — pair the hash with a code
// version when caching across builds).
func (s *Spec) Hash() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
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
