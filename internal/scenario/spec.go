// Package scenario assembles simulated AMPI runs declaratively.
//
// The paper's evaluation is a matrix of scenarios — privatization
// method x workload x machine shape x policy — and a Spec is the single
// description of one cell: machine shape, virtual ranks, privatization
// method, toolchain/OS environment, workload, load-balancing strategy,
// checkpoint policy, fault and churn processes, and tracer. Validate
// reports every problem with the description as structured field
// errors, and Execute is the one way a described point becomes a
// result: it runs the world under the ft supervisor, which injects the
// Spec's fault and churn processes when it names them, and returns a
// Row of plain values (see row.go). The harness figures, the serve
// API and `privbench -spec` all go through it, so a description gets
// the same answer whichever door it came through. Config and RunElastic
// are Execute's steps; Build constructs the world without running it,
// for callers that need the world itself (bench/).
//
// Workloads are resolved by name through a registry (see
// workloads.go), so launchers list and select programs without
// importing each workload package, and load-balancer strategies parse
// through ParseBalancer (see balancer.go).
package scenario

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/ft"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/trace"
)

// EnvPolicy selects how a Spec derives its toolchain/OS environment.
type EnvPolicy int

const (
	// EnvAdjust (the default) starts from the paper's Bridges-2
	// environment and grants the selected method what it needs and that
	// environment lacks (core.Kind.Grant), as the paper's experiments
	// did: PIPglobals beyond 12 ranks per process gets the patched glibc,
	// Swapglobals gets the old-or-patched linker, and -fmpc-privatize
	// gets the MPC-patched compiler.
	EnvAdjust EnvPolicy = iota
	// EnvBridges2 uses the stock Bridges-2 environment; a method whose
	// requirements it does not meet fails Validate.
	EnvBridges2
	// EnvExplicit uses the Spec's Toolchain and OS verbatim: any
	// deviation from Bridges-2 is spelled out.
	EnvExplicit
)

// Spec declares one simulated run.
type Spec struct {
	// Machine is the cluster shape (nodes x processes x PEs) plus the
	// seed and cost model. The seed is the run's master seed: the Faults
	// and Churn samplers draw from their own seeds mixed with it, and a
	// run with neither has nothing random for it to move.
	Machine machine.Config
	// VPs is the number of virtual ranks (+vp N).
	VPs int
	// Method selects the privatization method.
	Method core.Kind

	// EnvPolicy, Toolchain, and OS describe the build/run environment;
	// see EnvPolicy.
	EnvPolicy EnvPolicy
	Toolchain core.Toolchain
	OS        core.OS

	// Workload names a registered workload (see Workloads); mutually
	// exclusive with Program. Exactly one of the two must be set.
	Workload string
	// WorkloadParams parameterizes a named workload's constructor.
	WorkloadParams WorkloadParams
	// Program is an explicit program for callers that need custom
	// images, result sinks, or per-rank main functions.
	Program *ampi.Program

	// Balancer, if set, runs at every AMPI_Migrate collective.
	Balancer lb.Strategy
	// Checkpoint, if set, is the policy Rank.CheckpointIfDue consults.
	Checkpoint *ampi.CheckpointPolicy
	// Churn, if set and enabled, runs the scenario under elastic
	// cluster membership: the spec is compiled to a deterministic
	// arrival/eviction schedule and executed by the ft elastic
	// supervisor (RunElastic). Requires a Checkpoint policy (membership
	// changes drain through snapshots) and a migratable method (ranks
	// must move when the machine reshapes).
	Churn *ft.ChurnSpec
	// Faults, if set, runs the scenario under a seeded crash process:
	// the spec compiles to a deterministic fault plan and the supervisor
	// restarts the job from its last checkpoint (from scratch when there
	// is none) after every node crash. Setting Churn or Faults at all —
	// even to a spec that injects nothing — fills the Row's supervised
	// columns.
	Faults *ft.FaultSpec
	// Placement overrides the default block mapping of VPs onto PEs.
	Placement []int
	// StackSize overrides the default 1 MiB per-rank ULT stack.
	StackSize uint64
	// Tracer, if set, receives virtual-time events from every layer.
	Tracer trace.Tracer
}

// FieldError is one problem with a Spec, tied to the field that
// caused it.
type FieldError struct {
	Field string `json:"field"`
	Msg   string `json:"msg"`
}

func (e FieldError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Msg) }

// ValidationError aggregates every FieldError found in one Validate
// pass, so a caller can report all problems at once.
type ValidationError struct {
	Errs []FieldError
}

func (e *ValidationError) Error() string {
	msgs := make([]string, len(e.Errs))
	for i, fe := range e.Errs {
		msgs[i] = fe.Error()
	}
	return "scenario: invalid spec: " + strings.Join(msgs, "; ")
}

// supervised reports whether Execute runs the Spec under the ft
// supervisor: it names a fault or a churn process.
func (s *Spec) supervised() bool { return s.Faults != nil || s.Churn != nil }

// ranksPerProc returns the most virtual ranks any one OS process hosts
// (the PIPglobals namespace limit is per process): counted from
// Placement when it is set, else the block placement's
// ceil(VPs/processes). It is called on Specs Validate has not passed.
func (s *Spec) ranksPerProc() int {
	procs := s.Machine.Nodes * s.Machine.ProcsPerNode
	if procs <= 0 || s.Machine.PEsPerProc <= 0 {
		return s.VPs
	}
	if s.Placement == nil {
		return (s.VPs + procs - 1) / procs
	}
	most, perProc := 0, make(map[int]int)
	for _, pe := range s.Placement {
		proc := pe / s.Machine.PEsPerProc
		perProc[proc]++
		most = max(most, perProc[proc])
	}
	return most
}

// image returns the program the method's requirements on the program
// are checked against: the explicit Program's, or the named workload's
// when the method has such requirements at all. Nil when there is none
// to check.
func (s *Spec) image() *elf.Image {
	if s.Program != nil {
		return s.Program.Image
	}
	wl, ok := LookupWorkload(s.Workload)
	if !ok || s.Method.Needs()&core.NeedsOfImage == 0 {
		return nil
	}
	prog, _ := wl.New(s.WorkloadParams)
	return prog.Image
}

// env resolves the toolchain/OS pair the run executes under.
func (s *Spec) env() (core.Toolchain, core.OS) {
	if s.EnvPolicy == EnvExplicit {
		return s.Toolchain, s.OS
	}
	tc, osEnv := core.Bridges2Env()
	if s.Method.Valid() && s.EnvPolicy == EnvAdjust {
		tc, osEnv = s.Method.Grant(tc, osEnv, s.ranksPerProc())
	}
	return tc, osEnv
}

// Validate checks the Spec as a whole and returns a *ValidationError
// carrying one FieldError per problem, or nil.
func (s *Spec) Validate() error {
	var errs []FieldError
	add := func(field, format string, args ...any) {
		errs = append(errs, FieldError{Field: field, Msg: fmt.Sprintf(format, args...)})
	}

	machineOK := false
	if err := s.Machine.Validate(); err != nil {
		add("Machine", "%v", err)
	} else if m := s.Machine; m.Nodes > mem.MaxRanks || m.ProcsPerNode > mem.MaxRanks/m.Nodes ||
		m.PEsPerProc > mem.MaxRanks/(m.Nodes*m.ProcsPerNode) {
		// Dividing the ceiling down keeps the product from wrapping. A
		// world holds at most MaxRanks ranks, so PEs beyond that could
		// never run one.
		add("Machine", "%d x %d x %d PEs exceed the %d a world's ranks could occupy",
			m.Nodes, m.ProcsPerNode, m.PEsPerProc, mem.MaxRanks)
	} else {
		machineOK = true
	}
	if s.VPs <= 0 {
		add("VPs", "must be positive, got %d", s.VPs)
	} else if s.VPs > mem.MaxRanks {
		add("VPs", "%d ranks exceed the Isomalloc arena's %d per-rank ranges", s.VPs, mem.MaxRanks)
	}

	if !s.Method.Valid() {
		add("Method", "unknown privatization method %d", int(s.Method))
	}

	// A Spec with neither Workload nor Program is still valid for
	// Config() — callers like the fault-tolerance supervisor construct
	// the program per attempt — but Build() requires one of the two.
	switch {
	case s.Workload != "" && s.Program != nil:
		add("Workload", "mutually exclusive with Program; set exactly one")
	case s.Workload != "":
		if _, ok := LookupWorkload(s.Workload); !ok {
			add("Workload", "unknown workload %q (try %s)",
				s.Workload, strings.Join(WorkloadNames(), ", "))
		}
	}

	if s.Balancer != nil && s.Method.Valid() && !s.Method.Migratable() {
		add("Balancer", "method %s does not support migration; a load balancer cannot move its ranks", s.Method)
	}
	if s.Placement != nil && len(s.Placement) != s.VPs {
		add("Placement", "has %d entries, want one per VP (%d)", len(s.Placement), s.VPs)
	}
	if machineOK {
		npes := s.Machine.Nodes * s.Machine.ProcsPerNode * s.Machine.PEsPerProc
		for vp, pe := range s.Placement {
			if pe < 0 || pe >= npes {
				add("Placement", "entry %d is PE %d, but the machine has PEs 0..%d", vp, pe, npes-1)
				break
			}
		}
	}
	if s.Churn != nil {
		if err := s.Churn.Validate(); err != nil {
			add("Churn", "%v", err)
		}
		if s.Churn.Enabled() {
			if s.Checkpoint == nil || s.Checkpoint.Interval <= 0 {
				add("Churn", "elastic membership changes need a checkpoint policy to drain through")
			}
			if s.Method.Valid() && !s.Method.Migratable() {
				add("Churn", "method %s does not support migration; ranks cannot move when the machine reshapes", s.Method)
			}
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			add("Faults", "%v", err)
		}
	}
	if s.supervised() {
		if s.Program != nil {
			add("Program", "a supervised run (Faults or Churn set) rebuilds its program for every attempt; name a registered Workload instead")
		}
	}
	if s.StackSize > mem.IsomallocRangeSize {
		add("StackSize", "%d bytes exceed a rank's %d-byte Isomalloc range", s.StackSize, uint64(mem.IsomallocRangeSize))
	}

	// Each workload parameter is read by the workload and in its range.
	wp := &s.WorkloadParams
	room := uint64(mem.IsomallocRangeSize - 1<<30)
	room -= min(room, cmp.Or(s.StackSize, 1<<20)) // AMPI's default stack
	reads := workloadRegistry[s.Workload].reads
	for _, p := range [...]struct {
		key     string
		v, most uint64
	}{{"grid", uint64(wp.Grid), 64}, {"iters", uint64(wp.Iters), 1000}, {"heap_bytes", wp.HeapBytes, room}} {
		switch {
		case p.v != 0 && !slices.Contains(reads, p.key):
			add("WorkloadParams", "%s is not read by workload %q", p.key, s.Workload)
		case p.v > p.most:
			add("WorkloadParams", "%s is outside 1..%d", p.key, p.most)
		}
	}

	// What the method needs and the resolved environment, the machine
	// shape or the program does not supply — the same list Setup would
	// refuse the first entry of, named here before a world is built.
	if s.Method.Valid() {
		tc, osEnv := s.env()
		env := &core.ProcessEnv{Toolchain: tc, OS: osEnv, SMP: s.Machine.SMPMode()}
		for _, u := range s.Method.Unmet(env, s.image(), s.ranksPerProc()) {
			field := "Method"
			if u.Need == core.NeedNoSMP {
				field = "Machine"
			}
			add(field, "%s", u.Msg)
		}
	}

	if len(errs) > 0 {
		return &ValidationError{Errs: errs}
	}
	return nil
}

// Config validates the Spec and lowers it to the engine configuration.
func (s *Spec) Config() (ampi.Config, error) {
	if err := s.Validate(); err != nil {
		return ampi.Config{}, err
	}
	tc, osEnv := s.env()
	return ampi.Config{
		Machine:    s.Machine,
		VPs:        s.VPs,
		Privatize:  s.Method,
		Toolchain:  tc,
		OS:         osEnv,
		StackSize:  s.StackSize,
		Balancer:   s.Balancer,
		Checkpoint: s.Checkpoint,
		Placement:  s.Placement,
		Tracer:     s.Tracer,
	}, nil
}

// Built is a constructed, not-yet-run world.
type Built struct {
	World *ampi.World
}

// Build validates the Spec, resolves its workload, and constructs the
// world.
func (s *Spec) Build() (*Built, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	mk, err := s.workload()
	if err != nil {
		return nil, err
	}
	prog, _ := mk()
	w, err := ampi.NewWorld(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &Built{World: w}, nil
}

// workload resolves the Spec's program into a constructor: the named
// workload's, bound to the parameters it is given, or one that returns
// the explicit Program and no report.
func (s *Spec) workload() (func() (*ampi.Program, func()), error) {
	if s.Program != nil {
		return func() (*ampi.Program, func()) { return s.Program, nil }, nil
	}
	if s.Workload == "" {
		return nil, &ValidationError{Errs: []FieldError{{
			Field: "Workload",
			Msg:   fmt.Sprintf("no workload: name one of %s", strings.Join(WorkloadNames(), ", ")),
		}}}
	}
	wl, _ := LookupWorkload(s.Workload) // existence pinned by Validate
	p := s.WorkloadParams
	p.hasLB = s.Balancer != nil
	return func() (*ampi.Program, func()) { return wl.New(p) }, nil
}

// RunElastic is Execute's one loop: the Churn and Faults specs, when
// set, compile to deterministic membership and crash plans, and the ft
// supervisor drains, reshapes, and restarts the job across every
// arrival, eviction and crash. With neither it runs the world once, as
// Build would construct it. A supervised Spec needs a named Workload
// (each restart attempt needs a fresh program instance) and, when churn
// is enabled, a Checkpoint policy. The returned report function prints
// the final attempt's workload output, when the workload has one.
func (s *Spec) RunElastic() (*ft.ElasticReport, func(), error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, nil, err
	}
	mk, err := s.workload()
	if err != nil {
		return nil, nil, err
	}
	var report func()
	job := ft.ElasticJob{Config: cfg, Program: func() (p *ampi.Program) {
		p, report = mk()
		return p
	}}
	// Crashes and membership changes are the machine's doing, so the
	// machine's seed is mixed into both samplers: it is the run's master
	// seed, and zero leaves each spec's own seed as written.
	if s.Churn != nil {
		churn := *s.Churn
		churn.Seed ^= s.Machine.Seed
		job.Churn = churn.Compile(s.Machine.Nodes)
	}
	if s.Faults != nil {
		faults := *s.Faults
		faults.Seed ^= s.Machine.Seed
		job.Faults = faults.Compile(s.Machine.Nodes)
	}
	rep, err := ft.RunElastic(job)
	if err != nil {
		return rep, nil, err
	}
	return rep, report, nil
}
