package ampi

import (
	"errors"
	"fmt"

	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// FlatWorld is the million-VP scale path: a world whose ranks are bare
// array-of-structs records instead of user-level threads, and whose
// collectives are modeled as binomial-tree waves — one modelled arrival
// per tree edge, O(ranks) total, and an engine event only where the
// edge crosses a lookahead domain: an edge between co-located ranks is
// applied to the peer's record in place (DESIGN.md §11 argues that
// arrival order cannot matter). No goroutine, stack, heap, or
// matchqueue per rank. The tree shape, cost model, and network tiers
// are exactly the ones the full World charges through its message-level
// path (tree.go, machine.Cluster), so flat results are the same physics
// at a scale the per-rank machinery cannot reach: one 24-byte flatRank
// record per rank instead of a Thread + Rank + stack block each. The
// domains are the cluster's (machine.Cluster.DomainPlan); they decide
// only which edges the engine carries, never a result.
//
// Privatization cost and footprint are modeled by measurement plus
// extrapolation: Setup runs for two sample ranks, and the per-rank
// slope of setup time and resident bytes scales to the full world.
// This is the standard laptop-class answer to "what would a million
// ranks cost": the per-rank state is identical by construction (ranks
// are symmetric), so the slope is exact, not an estimate.
type FlatWorld struct {
	Cfg     FlatConfig
	Cluster *machine.Cluster

	ranks []flatRank
	pes   []*machine.PE

	// eng is the virtual clock: the cluster's engine.
	eng *sim.Engine
	// domOf maps global PE id to lookahead domain.
	domOf []int32

	// SetupDone is the modeled privatization-setup completion time for
	// the slowest process (extrapolated from the sampled ranks).
	SetupDone sim.Time
	// PerRankBytes is one rank's measured resident footprint: heap
	// resident bytes (stack, private data delta) as Setup produced them.
	PerRankBytes uint64
	// SharedBytesPerRank is one rank's bytes that stay on shared
	// read-only mappings (code pages, RO data under COW) — virtual
	// address space that costs no physical memory per rank.
	SharedBytesPerRank uint64

	// Migrations / MigratedBytes count completed storm migrations.
	Migrations    int
	MigratedBytes uint64

	maxClock sim.Time // the latest rank clock
	done     int      // ranks finished with the running collective
	moving   int      // storm migrations still in flight
	events   uint64   // modelled arrivals
	// Tree edges sent in the running collective, by path.
	inline, scheduled uint64

	// collBytes is the running collective's per-edge payload, threaded
	// to the event callbacks without per-event state.
	collBytes uint64

	// Cached engine callbacks, so scheduling an edge or a migration
	// allocates neither closures nor nodes.
	reduceFn, bcastFn, migrateFn func(any)
}

// flatRank is one virtual rank's complete runtime state on the flat
// path. Kept deliberately small (geometry, wave state, clock — 24
// bytes): a million of them is one 24 MB slab.
type flatRank struct {
	vp      int32
	pe      int32
	parent  int32 // absolute parent rank in the tree rooted at 0; -1 at root
	pending int32 // reduce-wave children still outstanding
	clock   sim.Time
}

// FlatConfig describes a flat-path run.
type FlatConfig struct {
	Machine machine.Config
	// VPs is the number of virtual ranks.
	VPs int
	// Image is the program image privatization setup is sampled on,
	// under PIEglobals with code-page sharing and read-only-data COW on
	// Bridges-2: the configuration the scale experiment exists to
	// demonstrate.
	Image *elf.Image
	// Tracer receives link and setup events. At this scale it
	// should be a streaming recorder (trace.NewJSONLRecorder), not a
	// retaining one. Link spans arrive in cascade order (depth first
	// from the dispatching event), not sorted by departure.
	Tracer trace.Tracer
}

// NewFlatWorld builds the cluster, samples privatization setup on two
// representative ranks to calibrate the per-rank slopes, and lays out
// the flat rank table.
func NewFlatWorld(cfg FlatConfig) (*FlatWorld, error) {
	if cfg.VPs <= 0 {
		return nil, fmt.Errorf("ampi: flat world needs positive VPs, got %d", cfg.VPs)
	}
	if cfg.Image == nil {
		return nil, errors.New("ampi: flat world needs a program image")
	}
	if err := cfg.Machine.Validate(); err != nil {
		return nil, err
	}
	cl, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	toolchain, osEnv := core.Bridges2Env()
	w := &FlatWorld{Cfg: cfg, Cluster: cl, pes: cl.PEs(), eng: cl.Engine, domOf: cl.DomainPlan()}
	w.reduceFn = func(arg any) { w.reduceArrive(w.eng.Now(), arg.(*flatRank)) }
	w.bcastFn = func(arg any) { w.bcastArrive(w.eng.Now(), arg.(*flatRank)) }
	w.migrateFn = w.migrateArrive
	cl.SetTracer(cfg.Tracer) // shared-FS spans during sampling, link spans

	// Calibrate: run real privatization setup for one and for two ranks
	// in the first process, on throwaway linkers so the samples don't
	// interact. Ranks are symmetric, so the second rank's increments are
	// the exact per-rank slopes.
	proc := cl.Processes()[0]
	sample := func(vps []int) (*core.SetupResult, error) {
		env := &core.ProcessEnv{
			Proc:      proc,
			Cost:      cl.Cost,
			Linker:    loader.New(proc, cl.Cost),
			FS:        cl.FS,
			Toolchain: toolchain,
			OS:        osEnv,
			SMP:       cfg.Machine.SMPMode(),
		}
		return core.KindPIEglobalsSharedCodeCOW.Setup(env, cfg.Image, vps, 0)
	}
	one, err := sample([]int{0})
	if err != nil {
		return nil, err
	}
	two, err := sample([]int{0, 1})
	if err != nil {
		return nil, err
	}
	perRankTime := two.Done - one.Done
	if perRankTime < 0 {
		perRankTime = 0
	}
	ranksPerProc := (cfg.VPs + len(cl.Processes()) - 1) / len(cl.Processes())
	w.SetupDone = one.Done + sim.Time(ranksPerProc-1)*perRankTime
	ctx := two.Contexts[1]
	w.PerRankBytes = ctx.Heap.ResidentBytes()
	w.SharedBytesPerRank = ctx.Heap.SharedSpanBytes()
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(trace.Event{Time: 0, Dur: w.SetupDone, Kind: trace.KindSetup,
			PE: 0, VP: -1, Peer: -1})
	}

	// The rank table: block placement, binomial-tree geometry rooted at
	// rank 0, clocks starting when setup completes.
	w.ranks = make([]flatRank, cfg.VPs)
	npes := len(w.pes)
	for vp := range w.ranks {
		parent, _ := binomialNode(vp, cfg.VPs)
		w.ranks[vp] = flatRank{
			vp:      int32(vp),
			pe:      int32(vp * npes / cfg.VPs),
			parent:  int32(parent),
			pending: int32(binomialChildCount(vp, cfg.VPs)),
			clock:   w.SetupDone,
		}
	}
	w.maxClock = w.SetupDone
	return w, nil
}

// Time reports the maximum rank clock — the job's elapsed virtual time.
func (w *FlatWorld) Time() sim.Time { return w.maxClock }

// EventsFired reports modelled arrivals so far: one per tree edge per
// wave, one per migration — a result of the model, whatever the machine
// shape. How many of them the engine carried is Dispatches.
func (w *FlatWorld) EventsFired() uint64 { return w.events }

// Dispatches reports engine events processed so far: the migrations and
// the tree edges that crossed a lookahead domain.
func (w *FlatWorld) Dispatches() uint64 { return w.eng.EventsFired() }

// advance raises the world clock to a rank-local completion time.
func (w *FlatWorld) advance(t sim.Time) {
	if t > w.maxClock {
		w.maxClock = t
	}
}

// begin opens a phase. Every phase starts at the world clock: ranks
// behind it are raised to it before anything is scheduled, so no phase
// sends from before the last one finished, or behind the engine clock.
func (w *FlatWorld) begin() sim.Time {
	start := w.Time()
	for vp := range w.ranks {
		if w.ranks[vp].clock < start {
			w.ranks[vp].clock = start
		}
	}
	return start
}

// Allreduce models one allreduce of bytes per tree edge across every
// rank: a reduce wave up the binomial tree followed by a broadcast wave
// down it. One modelled arrival per edge per wave — 2(N-1) in total —
// of which only the edges that cross a lookahead domain are engine
// events. It drives the engine to completion and returns the virtual
// time at which the last rank finished.
func (w *FlatWorld) Allreduce(bytes uint64) (sim.Time, error) {
	start := w.begin()
	w.done = 0
	w.collBytes = bytes
	// Leaves complete their (empty) reduce subtree immediately; interior
	// ranks complete as arrivals drain their pending count.
	for vp := range w.ranks {
		if w.ranks[vp].pending == 0 {
			w.reduceComplete(start, &w.ranks[vp])
		}
	}
	err := w.eng.Run(func() bool { return w.done == len(w.ranks) })
	if err != nil {
		return 0, fmt.Errorf("ampi: flat allreduce stalled: %w", err)
	}
	// Re-arm the tree for the next collective.
	for vp := range w.ranks {
		w.ranks[vp].pending = int32(binomialChildCount(vp, len(w.ranks)))
	}
	metrics.flatInline.Add(w.inline)
	metrics.flatScheduled.Add(w.scheduled)
	w.inline, w.scheduled = 0, 0
	return w.Time(), nil
}

// edge lands one tree edge, sent while the modelled clock read now, at
// its far end: in place through land when both ends share a lookahead
// domain — a cascade at most the tree height deep — and as an engine
// event through ev otherwise. Nothing may arrive before now, on either
// path: the check the engine makes of every event it is handed.
func (w *FlatWorld) edge(now, arrive sim.Time, from, to *flatRank, land func(sim.Time, *flatRank), ev func(any)) {
	if arrive < now {
		panic(fmt.Sprintf("ampi: flat edge %d->%d arrives at %v, before now %v", from.vp, to.vp, arrive, now))
	}
	if w.domOf[to.pe] != w.domOf[from.pe] {
		w.scheduled++
		w.eng.AtCall(arrive, ev, to)
		return
	}
	w.inline++
	land(arrive, to)
}

// reduceComplete fires when a rank has combined all child contributions:
// it forwards the partial up one edge, or, at the root, turns the wave
// around into the broadcast.
func (w *FlatWorld) reduceComplete(now sim.Time, r *flatRank) {
	if r.parent < 0 {
		w.bcastSend(now, r)
		w.done++
		w.advance(r.clock)
		return
	}
	p := &w.ranks[r.parent]
	depart := r.clock + w.Cluster.Cost.MsgSendOverhead
	arrive := w.Cluster.Transfer(depart, w.pes[r.pe], w.pes[p.pe], w.collBytes)
	r.clock = depart
	w.edge(now, arrive, r, p, w.reduceArrive, w.reduceFn)
}

// reduceArrive is one reduce edge landing at the parent at time now,
// called by edge or by the engine.
func (w *FlatWorld) reduceArrive(now sim.Time, p *flatRank) {
	w.events++
	at := now + w.Cluster.Cost.MsgRecvOverhead
	if at > p.clock {
		p.clock = at
	}
	if p.pending--; p.pending == 0 {
		w.reduceComplete(now, p)
	}
}

// bcastSend forwards the broadcast down the rank's tree edges. Sends
// are sequential on the rank (as in the message-level path), so each
// child's departure is one send overhead after the previous.
func (w *FlatWorld) bcastSend(now sim.Time, r *flatRank) {
	rel := int(r.vp)
	_, limit := binomialNode(rel, len(w.ranks))
	for m := 1; m < limit && rel+m < len(w.ranks); m <<= 1 {
		c := &w.ranks[rel+m]
		r.clock += w.Cluster.Cost.MsgSendOverhead
		arrive := w.Cluster.Transfer(r.clock, w.pes[r.pe], w.pes[c.pe], w.collBytes)
		w.edge(now, arrive, r, c, w.bcastArrive, w.bcastFn)
	}
	w.advance(r.clock)
}

// bcastArrive is one broadcast edge landing at a child at time now,
// called by edge or by the engine: the rank now holds the result,
// forwards it on, and is done.
func (w *FlatWorld) bcastArrive(now sim.Time, c *flatRank) {
	w.events++
	c.clock = now + w.Cluster.Cost.MsgRecvOverhead
	w.bcastSend(now, c)
	w.done++
	w.advance(c.clock)
}

// MigrationStorm migrates every stride-th rank to the PE halfway across
// the machine, all departing at the current world clock — the
// load-balancer-gone-wild stress case. Each migration is one engine
// event, reserved up front; costs follow the message-level migration
// path: serialize (CopyTime) + wire transfer + deserialize (CopyTime) +
// fixed migration overhead, over the rank's resident bytes. It returns
// the time the last rank landed.
func (w *FlatWorld) MigrationStorm(stride int) (sim.Time, error) {
	if stride <= 0 {
		return 0, fmt.Errorf("ampi: migration stride must be positive, got %d", stride)
	}
	start := w.begin()
	npes := len(w.pes)
	dst := func(r *flatRank) int {
		if int(r.vp)%stride != 0 {
			return int(r.pe)
		}
		return (int(r.pe) + npes/2) % npes
	}
	movers := 0
	for vp := range w.ranks {
		if dst(&w.ranks[vp]) != int(w.ranks[vp].pe) {
			movers++
		}
	}
	w.eng.Reserve(movers)
	cost, bytes := w.Cluster.Cost, w.PerRankBytes
	for vp := range w.ranks {
		r := &w.ranks[vp]
		to := dst(r)
		if to == int(r.pe) {
			continue
		}
		depart := start + cost.CopyTime(bytes)
		arrive := w.Cluster.Transfer(depart, w.pes[r.pe], w.pes[to], bytes)
		land := arrive + cost.CopyTime(bytes) + cost.MigrationOverhead
		r.pe = int32(to)
		w.moving++
		w.eng.AtCall(land, w.migrateFn, r)
	}
	if err := w.eng.Run(func() bool { return w.moving == 0 }); err != nil {
		return 0, fmt.Errorf("ampi: migration storm stalled: %w", err)
	}
	return w.Time(), nil
}

// migrateArrive is the engine callback for one migrated rank landing on
// its destination PE.
func (w *FlatWorld) migrateArrive(arg any) {
	r := arg.(*flatRank)
	r.clock = w.eng.Now()
	w.advance(r.clock)
	w.events++
	w.Migrations++
	w.MigratedBytes += w.PerRankBytes
	w.moving--
}
