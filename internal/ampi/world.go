// Package ampi is the reproduction's Adaptive-MPI-like runtime: an MPI
// layer whose ranks are migratable user-level threads scheduled
// cooperatively on the PEs of a simulated cluster, with global/static
// state privatized by a method from internal/core.
//
// Programs are Go functions receiving a *Rank; they use the familiar
// MPI surface (Send/Irecv/Wait, Barrier, Allreduce, user-defined
// reduction operators) plus AMPI extensions (Migrate). Blocking calls
// suspend the rank's user-level thread so another rank can run —
// message-driven overdecomposition exactly as §2.1 describes.
package ampi

import (
	"errors"
	"fmt"

	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/lb"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/ult"
)

// Program is a virtualizable MPI program: its synthetic binary image
// plus the Go function each rank executes.
type Program struct {
	Image *elf.Image
	// Main is the rank body (the MPI main after MPI_Init).
	Main func(r *Rank)
	// ReduceFuncs maps image function names to the Go implementations
	// of user-defined reduction operators created with OpCreate.
	ReduceFuncs map[string]ReduceFunc
}

// Config describes a virtualized run: the machine, the degree of
// virtualization, and the privatization method.
type Config struct {
	Machine machine.Config
	// VPs is the number of virtual ranks (+vp N).
	VPs int
	// Privatize selects the privatization method.
	Privatize core.Kind
	// Toolchain and OS describe the build/run environment; zero values
	// select the paper's Bridges-2 environment.
	Toolchain core.Toolchain
	OS        core.OS
	// StackSize overrides the default 1 MiB per-rank ULT stack.
	StackSize uint64
	// Balancer, if set, runs at every AMPI_Migrate collective.
	Balancer lb.Strategy
	// Trigger, if set, gates the balancer: balancing only runs when
	// ShouldBalance reports true (e.g. lb.ImbalanceTrigger). Nil
	// balances at every opportunity.
	Trigger lb.Trigger
	// Checkpoint, if set, is the policy Rank.CheckpointIfDue consults:
	// where snapshots go and how often they are taken. Nil means
	// CheckpointIfDue never checkpoints.
	Checkpoint *CheckpointPolicy
	// Placement, if non-nil, overrides the default block mapping of VPs
	// onto PEs: rank vp starts on PE Placement[vp]. Its length must be
	// VPs and every entry a valid PE id. The supervisor uses this to
	// remap ranks displaced from an evicted node onto survivors.
	Placement []int
	// Tracer, if set, receives Projections-style virtual-time events
	// from every layer of the run: engine dispatch, context switches
	// and execution quanta, message posts/matches/waits, collectives,
	// migrations, link occupancy, and shared-FS transfers. The nil
	// default is the zero-overhead path: each hook is a single pointer
	// comparison, and no hook perturbs virtual time, so traced and
	// untraced runs produce identical results.
	Tracer trace.Tracer

	// restart, when set via NewWorldFromCheckpoint, restores every
	// rank's state from the snapshot before its thread first runs.
	restart *Checkpoint
}

// normalize checks the configuration and fills its defaults.
func (c *Config) normalize() error {
	if err := c.Machine.Validate(); err != nil {
		return err
	}
	if c.VPs <= 0 {
		return fmt.Errorf("ampi: VPs must be positive, got %d", c.VPs)
	}
	if !c.Privatize.Valid() {
		return fmt.Errorf("ampi: unknown privatization method %d", int(c.Privatize))
	}
	if c.Toolchain == (core.Toolchain{}) && c.OS == (core.OS{}) {
		c.Toolchain, c.OS = core.Bridges2Env()
	}
	return nil
}

// World is one virtualized MPI job.
type World struct {
	Cfg     Config
	Cluster *machine.Cluster
	Program *Program

	Ranks  []*Rank
	scheds []*ult.Scheduler
	envs   []*core.ProcessEnv

	// SetupDone is the virtual time at which privatization setup
	// completed on the slowest process (Fig. 5's startup metric).
	SetupDone sim.Time

	// Migrations counts completed rank migrations.
	Migrations int
	// MigratedBytes counts full logical payload bytes moved by
	// migrations.
	MigratedBytes uint64
	// MigratedDeltaBytes counts the bytes migrations actually pushed
	// through the network: dirty blocks only, once a rank has a
	// previous snapshot to be incremental against.
	MigratedDeltaBytes uint64
	// SkippedBalances counts Migrate collectives where the trigger
	// declined to rebalance.
	SkippedBalances int
	// Checkpoints counts snapshots actually taken (each a
	// CheckpointIfDue that came due).
	Checkpoints int
	// RestoreDone is the virtual time the slowest rank finished
	// restoring on a restarted world (zero when not a restart).
	RestoreDone sim.Time
	// RestoredBytes is the payload volume restored into ranks on a
	// restarted world.
	RestoredBytes uint64

	// tracer mirrors Cfg.Tracer for the runtime's hook sites.
	tracer trace.Tracer

	migrateWaiting []*Rank
	lastMigrations []MigrationRecord
	ckptWaiting    []*Rank
	checkpoints    [2]*Checkpoint // the last snapshot taken and the one before it
	lastCkptAt     sim.Time
	ckptDecision   bool
	runtimeErr     error
	failure        *NodeFailure

	// reconfigPending arms a graceful drain (see ScheduleReconfigure):
	// the next CheckpointIfDue snapshots unconditionally and stops the
	// world with a *Reconfigure error.
	reconfigPending bool

	// Scratch pools (see pool.go). Per-world, engine-thread-only.
	bufFree [][]float64
	msgFree freeList[message]
	reqFree freeList[Request]
}

// NewWorld builds the cluster, runs privatization setup on every
// process, and creates (but does not start) the rank threads.
func NewWorld(cfg Config, prog *Program) (*World, error) {
	if prog == nil || prog.Image == nil || prog.Main == nil {
		return nil, errors.New("ampi: program must have an image and a main function")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cl, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	w := &World{Cfg: cfg, Cluster: cl, Program: prog, tracer: cfg.Tracer}
	if w.tracer != nil {
		cl.SetTracer(w.tracer)
	}

	// Block-map VPs onto PEs: PE i runs VPs [i*V/P, (i+1)*V/P).
	// Config.Placement overrides the block map rank by rank.
	pes := cl.PEs()
	vpPE := make([]int, cfg.VPs)
	if cfg.Placement != nil {
		if len(cfg.Placement) != cfg.VPs {
			return nil, fmt.Errorf("ampi: Placement has %d entries, want %d (one per VP)",
				len(cfg.Placement), cfg.VPs)
		}
		for vp, pe := range cfg.Placement {
			if pe < 0 || pe >= len(pes) {
				return nil, fmt.Errorf("ampi: Placement[%d] = %d, but machine has PEs 0..%d",
					vp, pe, len(pes)-1)
			}
			vpPE[vp] = pe
		}
	} else {
		for vp := range vpPE {
			vpPE[vp] = vp * len(pes) / cfg.VPs
		}
	}

	// Per-process privatization setup. Processes start concurrently;
	// the job's startup time is the slowest process.
	var setupDone sim.Time
	ctxByVP := make([]*core.RankContext, cfg.VPs)
	sharedByProc := make(map[*machine.Process]*elf.Instance)
	for _, proc := range cl.Processes() {
		firstPE := proc.PEs[0].ID
		env := &core.ProcessEnv{
			Proc:      proc,
			Cost:      cl.Cost,
			Linker:    loader.New(proc, cl.Cost),
			FS:        cl.FS,
			Toolchain: cfg.Toolchain,
			OS:        cfg.OS,
			SMP:       cfg.Machine.SMPMode(),
			StackSize: cfg.StackSize,
		}
		var vps []int
		for vp, pe := range vpPE {
			if pes[pe].Proc == proc {
				vps = append(vps, vp)
			}
		}
		w.envs = append(w.envs, env)
		res, err := w.Cfg.Privatize.Setup(env, prog.Image, vps, 0)
		if err != nil {
			return nil, err
		}
		sharedByProc[proc] = res.SharedInstance
		for i, vp := range vps {
			ctxByVP[vp] = res.Contexts[i]
		}
		if res.Done > setupDone {
			setupDone = res.Done
		}
		if w.tracer != nil {
			w.tracer.Emit(trace.Event{Time: 0, Dur: res.Done, Kind: trace.KindSetup,
				PE: int32(firstPE), VP: -1, Peer: -1})
		}
	}
	w.SetupDone = setupDone
	w.lastCkptAt = setupDone // CheckpointIfDue intervals count from job start

	// One scheduler per PE, with the method's context-switch surcharge.
	for _, pe := range pes {
		s := ult.NewScheduler(pe, cl.Engine, cl.Cost)
		s.SwitchExtra = func(_, to *ult.Thread) sim.Time {
			return w.Cfg.Privatize.SwitchExtra(rankCtx(to))
		}
		s.Tracer = w.tracer
		w.scheds = append(w.scheds, s)
	}

	// Rank objects and their threads, in two contiguous slabs (one Rank
	// and one Thread record per VP instead of a heap-object pair each),
	// sharing a single body closure. At million-VP worlds this is the
	// difference between 2N cache-hostile allocations and 2 slabs.
	rankStore := make([]Rank, cfg.VPs)
	threadStore := make([]ult.Thread, cfg.VPs)
	body := func(t *ult.Thread) { prog.Main(w.Ranks[t.ID]) }
	w.Ranks = make([]*Rank, cfg.VPs)
	for vp := 0; vp < cfg.VPs; vp++ {
		r := &rankStore[vp]
		*r = Rank{world: w, vp: vp, ctx: ctxByVP[vp], pe: pes[vpPE[vp]]}
		r.thread = &threadStore[vp]
		ult.InitThread(r.thread, vp, body)
		r.thread.Context = r.ctx
		r.ctx.Thread = r.thread
		w.Ranks[vp] = r
	}

	if cfg.restart != nil {
		// Restarting from a checkpoint: threads start only after
		// their state is read back and restored.
		if err := w.restoreFromCheckpoint(cfg.restart, vpPE); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Hand ranks to their home schedulers once setup completes.
	cl.Engine.At(setupDone, func() {
		for vp, r := range w.Ranks {
			w.scheds[vpPE[vp]].Adopt(r.thread)
		}
	})
	return w, nil
}

func rankCtx(t *ult.Thread) *core.RankContext {
	if t == nil {
		return nil
	}
	ctx, _ := t.Context.(*core.RankContext)
	return ctx
}

// Run drives the simulation until every rank finishes. It returns the
// first rank error or runtime error encountered. However the run ends —
// completion, runtime error, node crash, drain, deadlock — no rank thread
// outlives it: once the result is decided, every rank still parked is
// killed, so its body unwinds (deferred functions run) and its coroutine
// and stack are released with the world.
func (w *World) Run() error {
	err := w.Cluster.Engine.Run(func() bool {
		if w.runtimeErr != nil {
			return true
		}
		for _, r := range w.Ranks {
			if r.thread.State() != ult.Done {
				return false
			}
		}
		return true
	})
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: w.Time(), Kind: trace.KindRunEnd, PE: -1, VP: -1, Peer: -1})
	}
	err = w.result(err)
	for _, r := range w.Ranks {
		r.thread.Kill("world stopped")
	}
	return err
}

// result turns the engine's verdict into Run's error.
func (w *World) result(stall error) error {
	if w.runtimeErr != nil {
		return w.runtimeErr
	}
	// A rank that died of a panic explains any apparent deadlock, so
	// report it first.
	for _, r := range w.Ranks {
		if r.thread.Err != nil {
			return r.thread.Err
		}
	}
	if stall != nil {
		return fmt.Errorf("ampi: %w (%s)", stall, w.describeStall())
	}
	return nil
}

// describeStall summarizes rank states for deadlock diagnostics.
func (w *World) describeStall() string {
	states := make(map[ult.State]int)
	for _, r := range w.Ranks {
		states[r.thread.State()]++
	}
	return fmt.Sprintf("rank states: %v", states)
}

// fail records a fatal runtime error and halts the simulation.
func (w *World) fail(err error) {
	if w.runtimeErr == nil {
		w.runtimeErr = err
	}
	w.Cluster.Engine.Halt()
}

// Time reports the maximum PE-local clock — the job's elapsed virtual
// time.
func (w *World) Time() sim.Time {
	var t sim.Time
	for _, s := range w.scheds {
		if s.Now() > t {
			t = s.Now()
		}
	}
	return t
}

// ExecutionTime reports job time excluding startup.
func (w *World) ExecutionTime() sim.Time {
	t := w.Time()
	if t < w.SetupDone {
		return 0
	}
	return t - w.SetupDone
}

// TotalSwitches sums ULT context switches across PEs.
func (w *World) TotalSwitches() uint64 {
	var n uint64
	for _, s := range w.scheds {
		n += s.Switches()
	}
	return n
}

// RankLoads snapshots every rank's measured load and current placement
// in the load balancer's input form. Supervisors use it after a failed
// run to compute a shrink placement for the restart.
func (w *World) RankLoads() []lb.RankLoad {
	out := make([]lb.RankLoad, len(w.Ranks))
	for i, r := range w.Ranks {
		out[i] = lb.RankLoad{VP: r.vp, PE: r.pe.ID, Load: r.thread.Load, Migratable: w.Cfg.Privatize.Migratable()}
	}
	return out
}

// Scheds exposes the per-PE schedulers (read-only use).
func (w *World) Scheds() []*ult.Scheduler { return w.scheds }

// EnvFor returns the process environment a PE belongs to.
func (w *World) EnvFor(pe *machine.PE) *core.ProcessEnv {
	for _, env := range w.envs {
		if env.Proc == pe.Proc {
			return env
		}
	}
	return nil
}

// sharedInstanceOf returns the base program instance of a process.
func (w *World) sharedInstanceOf(proc *machine.Process) *elf.Instance {
	for _, env := range w.envs {
		if env.Proc == proc {
			// The base instance is namespace 0's first handle.
			for _, h := range env.Linker.Handles() {
				if h.Path == w.Program.Image.Name {
					return h.Inst
				}
			}
		}
	}
	return nil
}
