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
// record per rank instead of a Thread + Rank + stack block each.
//
// The flat world is also the repo's first parallel-simulation consumer:
// with FlatConfig.SimWorkers > 1 its events run on a sharded
// sim.ParallelEngine, partitioned into the cluster's lookahead domains
// (machine.Cluster.DomainPlan). Every callback is written
// domain-confined — it touches only the target rank's record and its
// domain's counter slot, and reads of other ranks are limited to fields
// immutable during a run (geometry, home PE) — so rows and trace bytes
// are byte-identical to the serial engine at any worker count.
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

	// eng is the virtual clock: the cluster's serial engine in domain
	// mode, or a sim.ParallelEngine when SimWorkers asks for one.
	eng sim.Dispatcher
	// domOf maps global PE id to lookahead domain.
	domOf []int32
	// doms holds the per-domain mutable counters. Each event callback
	// writes only its own domain's slot; totals are folded on demand
	// (sums and maxima commute, so they are scheduling-independent).
	doms []flatDomain

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

	// Migrations / MigratedBytes count completed storm migrations,
	// folded from the per-domain counters after each storm.
	Migrations    int
	MigratedBytes uint64

	// collBytes is the running collective's per-edge payload, threaded
	// to the event callbacks without per-event state.
	collBytes uint64

	// Cached bound-method values so hot-path scheduling via AtCallIn
	// allocates neither closures nor nodes.
	reduceFn  sim.TimedCall
	bcastFn   sim.TimedCall
	migrateFn sim.TimedCall

	tracer trace.Tracer
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

// flatDomain is one lookahead domain's slice of the world's mutable
// counters, exactly a cache line so concurrent domains don't falsely
// share one.
type flatDomain struct {
	done          int // ranks finished with the running collective
	pendingOp     int // outstanding modeled operations in this domain
	maxClock      sim.Time
	migrations    int
	migratedBytes uint64
	events        uint64 // modelled arrivals landed in this domain
	// Tree edges this domain sent in the running collective, by path.
	inline, scheduled uint64
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
	// Tracer receives engine, link, and setup events. At this scale it
	// should be a streaming recorder (trace.NewJSONLRecorder), not a
	// retaining one. Link spans arrive in cascade order (depth first
	// from the dispatching event), not sorted by departure.
	Tracer trace.Tracer
	// SimWorkers enables intra-world parallel simulation: values > 1
	// run the event engine as a sim.ParallelEngine with up to that many
	// domains advancing concurrently. Results, rows, and trace bytes
	// are byte-identical at any setting; <= 1 runs serial.
	SimWorkers int
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
	w := &FlatWorld{Cfg: cfg, Cluster: cl, pes: cl.PEs(), tracer: cfg.Tracer}
	w.reduceFn = w.reduceArrive
	w.bcastFn = w.bcastArrive
	w.migrateFn = w.migrateArrive

	// The clock: both engines stamp ties with the same
	// (time, domain, creator, count) total order, so which one runs is
	// invisible in the results. The serial engine enters domain mode
	// even at SimWorkers <= 1 precisely so the parallel engine has a
	// serial twin to be byte-compared against.
	domOf, ndom, lookahead := cl.DomainPlan()
	w.domOf = domOf
	w.doms = make([]flatDomain, ndom)
	if cfg.SimWorkers > 1 && ndom > 1 && lookahead > 0 {
		w.eng = sim.NewParallelEngine(sim.ParallelConfig{
			Domains:   ndom,
			Lookahead: lookahead,
			Workers:   cfg.SimWorkers,
			Tracer:    cfg.Tracer,
		})
	} else {
		cl.Engine.EnableDomains(ndom)
		w.eng = cl.Engine
	}
	if w.tracer != nil {
		// Setup-phase emissions (shared-FS spans during sampling) and the
		// serial engine's dispatch records; run-phase link events go
		// through the Sched's tracer so the parallel engine can merge
		// them deterministically.
		cl.SetTracer(w.tracer)
	}

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
	if w.tracer != nil {
		w.tracer.Emit(trace.Event{Time: 0, Dur: w.SetupDone, Kind: trace.KindSetup,
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
	for d := range w.doms {
		w.doms[d].maxClock = w.SetupDone
	}
	return w, nil
}

// Time reports the maximum rank clock — the job's elapsed virtual time.
func (w *FlatWorld) Time() sim.Time {
	t := w.SetupDone
	for d := range w.doms {
		if w.doms[d].maxClock > t {
			t = w.doms[d].maxClock
		}
	}
	return t
}

// EventsFired reports modelled arrivals so far: one per tree edge per
// wave, one per migration — a result of the model, whatever the machine
// shape. How many of them the engine carried is Dispatches.
func (w *FlatWorld) EventsFired() uint64 {
	var n uint64
	for d := range w.doms {
		n += w.doms[d].events
	}
	return n
}

// Dispatches reports engine events processed so far: the migrations and
// the tree edges that crossed a lookahead domain.
func (w *FlatWorld) Dispatches() uint64 { return w.eng.EventsFired() }

// dom returns the counter slot for the rank's current home domain.
func (w *FlatWorld) dom(r *flatRank) *flatDomain {
	return &w.doms[w.domOf[r.pe]]
}

// advance folds a rank-local completion time into its domain's clock.
func (w *FlatWorld) advance(r *flatRank, t sim.Time) {
	if d := w.dom(r); t > d.maxClock {
		d.maxClock = t
	}
}

// doneRanks sums the per-domain completion counters. Only called
// between events (serial) or at window barriers (parallel), when no
// callback is mid-flight.
func (w *FlatWorld) doneRanks() int {
	n := 0
	for d := range w.doms {
		n += w.doms[d].done
	}
	return n
}

// pendingOps sums the per-domain outstanding-operation counters.
func (w *FlatWorld) pendingOps() int {
	n := 0
	for d := range w.doms {
		n += w.doms[d].pendingOp
	}
	return n
}

// transfer charges a network transfer like machine.Cluster.Transfer,
// but emits its link span through the Sched's tracer so that under the
// parallel engine the event lands in the merged per-window stream
// instead of racing other domains to the user's tracer.
func (w *FlatWorld) transfer(s sim.Sched, start sim.Time, a, b *machine.PE, n uint64) sim.Time {
	d := w.Cluster.TransferTime(a, b, n)
	if tr := s.Tracer(); tr != nil {
		tr.Emit(trace.Event{Time: start, Dur: d, Kind: trace.KindLink,
			PE: int32(a.ID), VP: -1, Peer: int32(b.ID), Aux: w.Cluster.Tier(a, b), Bytes: n})
	}
	return start + d
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
	for d := range w.doms {
		w.doms[d].done = 0
	}
	w.collBytes = bytes
	// Leaves complete their (empty) reduce subtree immediately; interior
	// ranks complete as arrivals drain their pending count.
	for vp := range w.ranks {
		if w.ranks[vp].pending == 0 {
			w.reduceComplete(w.eng, start, &w.ranks[vp])
		}
	}
	err := w.eng.Run(func() bool { return w.doneRanks() == len(w.ranks) })
	if err != nil {
		return 0, fmt.Errorf("ampi: flat allreduce stalled: %w", err)
	}
	// Re-arm the tree for the next collective.
	for vp := range w.ranks {
		w.ranks[vp].pending = int32(binomialChildCount(vp, len(w.ranks)))
	}
	for d := range w.doms {
		metrics.flatInline.Add(w.doms[d].inline)
		metrics.flatScheduled.Add(w.doms[d].scheduled)
		w.doms[d].inline, w.doms[d].scheduled = 0, 0
	}
	return w.Time(), nil
}

// edge lands one tree edge, sent while the modelled clock read now, at
// its far end: in place when both ends share a lookahead domain — a
// cascade at most the tree height deep whose every write stays in that
// domain, so serial and parallel runs stay identical — and as an engine
// event otherwise. Nothing may arrive before now, on either path: the
// check the engine makes of every event it is handed.
func (w *FlatWorld) edge(s sim.Sched, now, arrive sim.Time, from, to *flatRank, fn sim.TimedCall) {
	if arrive < now {
		panic(fmt.Sprintf("ampi: flat edge %d->%d arrives at %v, before now %v", from.vp, to.vp, arrive, now))
	}
	d := w.dom(from)
	if dst := w.domOf[to.pe]; dst != w.domOf[from.pe] {
		d.scheduled++
		s.AtCallIn(int(dst), arrive, fn, to)
		return
	}
	d.inline++
	fn(s, arrive, to)
}

// reduceComplete fires when a rank has combined all child contributions:
// it forwards the partial up one edge, or, at the root, turns the wave
// around into the broadcast.
func (w *FlatWorld) reduceComplete(s sim.Sched, now sim.Time, r *flatRank) {
	if r.parent < 0 {
		w.bcastSend(s, now, r)
		w.dom(r).done++
		w.advance(r, r.clock)
		return
	}
	p := &w.ranks[r.parent]
	depart := r.clock + w.Cluster.Cost.MsgSendOverhead
	arrive := w.transfer(s, depart, w.pes[r.pe], w.pes[p.pe], w.collBytes)
	r.clock = depart
	w.edge(s, now, arrive, r, p, w.reduceFn)
}

// reduceArrive is one reduce edge landing at the parent at time now,
// called by edge or by the engine. It runs in the parent's domain and
// touches only the parent's record.
func (w *FlatWorld) reduceArrive(s sim.Sched, now sim.Time, arg any) {
	p := arg.(*flatRank)
	w.dom(p).events++
	at := now + w.Cluster.Cost.MsgRecvOverhead
	if at > p.clock {
		p.clock = at
	}
	if p.pending--; p.pending == 0 {
		w.reduceComplete(s, now, p)
	}
}

// bcastSend forwards the broadcast down the rank's tree edges. Sends
// are sequential on the rank (as in the message-level path), so each
// child's departure is one send overhead after the previous. Children
// may live in other domains: their home PE is immutable during the
// collective, and the event is routed to the child's domain.
func (w *FlatWorld) bcastSend(s sim.Sched, now sim.Time, r *flatRank) {
	rel := int(r.vp)
	_, limit := binomialNode(rel, len(w.ranks))
	for m := 1; m < limit && rel+m < len(w.ranks); m <<= 1 {
		c := &w.ranks[rel+m]
		r.clock += w.Cluster.Cost.MsgSendOverhead
		arrive := w.transfer(s, r.clock, w.pes[r.pe], w.pes[c.pe], w.collBytes)
		w.edge(s, now, arrive, r, c, w.bcastFn)
	}
	w.advance(r, r.clock)
}

// bcastArrive is one broadcast edge landing at a child at time now,
// called by edge or by the engine: the rank now holds the result,
// forwards it on, and is done.
func (w *FlatWorld) bcastArrive(s sim.Sched, now sim.Time, arg any) {
	c := arg.(*flatRank)
	w.dom(c).events++
	c.clock = now + w.Cluster.Cost.MsgRecvOverhead
	w.bcastSend(s, now, c)
	w.dom(c).done++
	w.advance(c, c.clock)
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
		arrive := w.transfer(w.eng, depart, w.pes[r.pe], w.pes[to], bytes)
		land := arrive + cost.CopyTime(bytes) + cost.MigrationOverhead
		r.pe = int32(to)
		w.dom(r).pendingOp++
		w.eng.AtCallIn(int(w.domOf[to]), land, w.migrateFn, r)
	}
	if err := w.eng.Run(func() bool { return w.pendingOps() == 0 }); err != nil {
		return 0, fmt.Errorf("ampi: migration storm stalled: %w", err)
	}
	for d := range w.doms {
		w.Migrations += w.doms[d].migrations
		w.MigratedBytes += w.doms[d].migratedBytes
		w.doms[d].migrations, w.doms[d].migratedBytes = 0, 0
	}
	return w.Time(), nil
}

// migrateArrive is the engine callback for one migrated rank landing on
// its destination PE. It runs in the destination's domain.
func (w *FlatWorld) migrateArrive(s sim.Sched, now sim.Time, arg any) {
	r := arg.(*flatRank)
	r.clock = now
	w.advance(r, r.clock)
	d := w.dom(r)
	d.events++
	d.migrations++
	d.migratedBytes += w.PerRankBytes
	d.pendingOp--
}
