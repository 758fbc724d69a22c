package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/harness"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/scenario"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
	"provirt/internal/workloads/jacobi"
	"provirt/internal/workloads/synth"
)

// workload is one named set of inputs. why is the line BENCHMARK.json
// carries; README.md has the paragraph.
type workload struct {
	name, why string
	// maxReps caps the repetitions of one child where memory, not time,
	// is the limit; 0 means the time budget alone decides.
	maxReps int
	setup   func(e *env) (instance, error)
}

var workloads = []workload{
	{
		name:  "adcirc_scaling",
		why:   "table2 at cores 1-32: world build (PIE segment copies) and heap serialize under migration dominate; ult and sim idle",
		setup: func(e *env) (instance, error) { return &adcircScaling{cores: e.cfg.scale.adcircCores}, nil },
	},
	{
		name:  "switch_msg",
		why:   "six Fig. 6 ping points then a 64-rank jacobi: ult handoff, sim dispatch and ampi matching do the work; world build does none",
		setup: func(e *env) (instance, error) { return &switchMsg{iters: e.cfg.scale.jacobiIters}, nil },
	},
	{
		name: "churn_recovery",
		why:  "ftsweep then elastic: delta snapshots, restore on restart, both supervisors, crashed worlds; the only workload that leaves goroutines behind",
		// Every repetition leaves ~200 parked goroutines and ~100 MB
		// behind (ult.goroutines_left_per_rep), so memory caps the count.
		maxReps: 8,
		setup:   func(e *env) (instance, error) { return &churnRecovery{}, nil },
	},
	{
		name:  "flat_scale",
		why:   "the million-rank flat world on the serial engine: sim heap operations over rank records; no goroutine ranks, no ult, no byte copies",
		setup: func(e *env) (instance, error) { return &flatScale{vps: e.cfg.scale.flatVPs}, nil },
	},
	{
		name:  "serve_sweep",
		why:   "HTTP sweep server under a cold/dedup/warm/disk traffic mix of tiny points: serve, Spec canon and hash, and resultstore dominate, not the simulator",
		setup: setupServeSweep,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serial is how every simulation workload runs its sweeps: on the
// 2-vCPU reference host table2 at parallelism 2 spread 20 % between
// runs, at parallelism 1 about 2 %. The benchmark measures the
// simulator, not the host scheduler.
var serial = harness.Opts{Parallelism: 1}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// worldPoint builds and runs one goroutine-world Spec with a span
// around each half, and returns how long each took.
func worldPoint(e *env, name string, sp scenario.Spec) (w *ampi.World, build, run time.Duration, err error) {
	pt := e.tr.begin(e.root, name)
	defer e.tr.end(pt)
	s := e.tr.begin(pt, "scenario.build")
	t := time.Now()
	b, err := sp.Build()
	build = time.Since(t)
	e.tr.end(s)
	if err != nil {
		return nil, build, 0, err
	}
	s = e.tr.begin(pt, "world.run")
	t = time.Now()
	err = b.World.Run()
	run = time.Since(t)
	e.tr.end(s)
	return b.World, build, run, err
}

// --- adcirc_scaling ---

type adcircScaling struct {
	cores []int

	// Sums over the traced repetitions.
	build, run    time.Duration
	ranks         int
	modelBytes    uint64 // bytes privatization set up in rank heaps, as modelled
	migratedBytes uint64
	// The 32-core ratio-8 world's loads, for the balancer probe.
	loads   []lb.RankLoad
	loadPEs int
}

func (a *adcircScaling) rep(e *env) {
	h := sha256.New()
	var err error
	if e.tr == nil {
		var rows []harness.AdcircRow
		rows, _, _, err = harness.AdcircScaling(serial, adcirc.DefaultConfig(), a.cores)
		for _, r := range rows {
			for _, p := range r.Points {
				fmt.Fprintf(h, "%d %d %t %d\n", p.Cores, p.Ratio, p.LB, p.Time)
			}
		}
	} else {
		err = a.decomposed(e, func(cores, ratio int, balanced bool, w *ampi.World) {
			fmt.Fprintf(h, "%d %d %t %d\n", cores, ratio, balanced, w.ExecutionTime())
		})
	}
	if err != nil {
		e.op(false, "rep %d: %v", e.rep, err)
		return
	}
	e.checkDigest(h)
}

// decomposed reproduces harness.AdcircScaling's grid from the public
// constructors, because the harness wrapper hides the boundary between
// world build and world run. The digest check holds it to the same
// results as the wrapper.
func (a *adcircScaling) decomposed(e *env, each func(cores, ratio int, balanced bool, w *ampi.World)) error {
	for _, cores := range a.cores {
		for _, ratio := range append([]int{1}, harness.AdcircRatios()...) {
			cfg := adcirc.DefaultConfig()
			var bal lb.Strategy
			if ratio > 1 {
				bal = lb.GreedyRefineLB{}
			} else {
				cfg.LBPeriod = 0
			}
			sp := scenario.Spec{
				Machine:  machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: cores},
				VPs:      cores * ratio,
				Method:   core.KindPIEglobals,
				Program:  adcirc.New(cfg, nil),
				Balancer: bal,
			}
			w, build, run, err := worldPoint(e, "point", sp)
			if err != nil {
				return fmt.Errorf("adcirc cores=%d ratio=%d: %w", cores, ratio, err)
			}
			a.build += build
			a.run += run
			a.ranks += len(w.Ranks)
			for _, r := range w.Ranks {
				a.modelBytes += r.Ctx().Heap.LiveBytes()
			}
			a.migratedBytes += w.MigratedBytes
			if ratio == 8 {
				a.loads, a.loadPEs = w.RankLoads(), cores
			}
			each(cores, ratio, ratio > 1, w)
		}
	}
	return nil
}

func (a *adcircScaling) layer(e *env, m map[string]float64, seg segment) {
	m["ampi.newworld_ms_per_rep"] = seg.perRep(ms(a.build))
	m["core.setup_us_per_rank"] = us(a.build) / float64(a.ranks)
	m["ampi.run_ms_per_rep"] = seg.perRep(ms(a.run))
	m["ampi.migrated_mb_per_rep"] = seg.perRep(float64(a.migratedBytes) / (1 << 20))
	m["mem.host_bytes_per_model_byte"] = float64(seg.mem1.TotalAlloc-seg.mem0.TotalAlloc) / float64(a.modelBytes+a.migratedBytes)

	var samples []float64
	for i := 0; i < 200; i++ {
		t := time.Now()
		lb.GreedyRefineLB{}.Rebalance(a.loads, a.loadPEs)
		samples = append(samples, us(time.Since(t)))
	}
	m["lb.rebalance_us"] = median(samples)

	// One repetition at sweep parallelism 2, against the serial
	// repetitions measured before tracing went on: the evidence for
	// whether the parallel sweep buys anything on this host.
	t := time.Now()
	_, _, _, err := harness.AdcircScaling(harness.Opts{Parallelism: 2}, adcirc.DefaultConfig(), a.cores)
	e.op(err == nil, "parallelism-2 repetition: %v", err)
	m["sweep.par2_speedup"] = median(seg.untracedRepMs) / ms(time.Since(t))

	memProbes(m)
}

func (a *adcircScaling) close() {}

// --- switch_msg ---

type switchMsg struct {
	iters int

	// Sums over the traced repetitions.
	build, pingRun, jacobiRun time.Duration
	ranks                     int
	switches, pingMallocs     uint64
	jacobiEvents              uint64
}

func (s *switchMsg) jacobiSpec(tracer trace.Tracer, residual *float64) scenario.Spec {
	cfg := jacobi.DefaultConfig()
	cfg.Iters = s.iters
	return scenario.Spec{
		Machine: machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:     64,
		Method:  core.KindTLSglobals,
		Program: jacobi.New(cfg, func(r jacobi.Result) {
			if r.VP == 0 && residual != nil {
				*residual = r.Residual
			}
		}),
		Tracer: tracer,
	}
}

func (s *switchMsg) rep(e *env) {
	h := sha256.New()
	traced := e.tr != nil
	for _, kind := range harness.Fig6Methods() {
		sp := scenario.Spec{
			Machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
			VPs:     2,
			Method:  kind,
			Program: synth.Ping(),
		}
		var m0, m1 runtime.MemStats
		if traced {
			runtime.ReadMemStats(&m0)
		}
		w, build, run, err := worldPoint(e, "point.ping", sp)
		if err != nil {
			e.op(false, "rep %d: ping %s: %v", e.rep, kind, err)
			return
		}
		sched := w.Scheds()[0]
		if traced {
			runtime.ReadMemStats(&m1)
			s.build += build
			s.pingRun += run
			s.pingMallocs += m1.Mallocs - m0.Mallocs
			s.switches += sched.Switches()
			s.ranks += len(w.Ranks)
		}
		fmt.Fprintf(h, "ping %s %d %d\n", kind, sched.Switches(), sched.SwitchTime())
	}
	var residual float64
	w, build, run, err := worldPoint(e, "point.jacobi", s.jacobiSpec(nil, &residual))
	if err != nil {
		e.op(false, "rep %d: jacobi: %v", e.rep, err)
		return
	}
	events := w.Cluster.Engine.EventsFired()
	if traced {
		s.build += build
		s.jacobiRun += run
		s.jacobiEvents += events
		s.ranks += len(w.Ranks)
	}
	fmt.Fprintf(h, "jacobi %d %d %x %d %d\n", w.Time(), w.ExecutionTime(), math.Float64bits(residual), events, w.TotalSwitches())
	e.checkDigest(h)
}

func (s *switchMsg) layer(e *env, m map[string]float64, seg segment) {
	m["ampi.newworld_ms_per_rep"] = seg.perRep(ms(s.build))
	m["core.setup_us_per_rank"] = us(s.build) / float64(s.ranks)
	m["ampi.run_ms_per_rep"] = seg.perRep(ms(s.pingRun + s.jacobiRun))
	m["ult.switch_ns"] = float64(s.pingRun) / float64(s.switches)
	m["ult.allocs_per_switch"] = float64(s.pingMallocs) / float64(s.switches)
	m["ult.ping_share_of_rep"] = float64(s.pingRun) / float64(seg.wall)
	m["ampi.msg_event_ns"] = float64(s.jacobiRun) / float64(s.jacobiEvents)
	if n := seg.obs["ampi_match_probe_depth_count"]; n > 0 {
		m["ampi.match_probe_depth_mean"] = seg.obs["ampi_match_probe_depth_sum"] / n
	}
	m["ampi.unexpected_per_rep"] = seg.perRep(seg.obs["ampi_unexpected_total"])
	m["sim.event_ns"] = engineProbe()

	// The jacobi point with and without an in-memory trace.Recorder,
	// alternating so drift hits both sides alike.
	var plain, recorded []float64
	for i := 0; i < 5; i++ {
		for _, rec := range []bool{false, true} {
			var tr trace.Tracer
			if rec {
				tr = trace.NewRecorder()
			}
			_, _, run, err := worldPoint(e, "probe", s.jacobiSpec(tr, nil))
			e.op(err == nil, "recorder probe: %v", err)
			if rec {
				recorded = append(recorded, ms(run))
			} else {
				plain = append(plain, ms(run))
			}
		}
	}
	m["trace.recorder_overhead_pct"] = 100 * (median(recorded)/median(plain) - 1)
}

func (s *switchMsg) close() {}

// --- churn_recovery ---

type churnRecovery struct{}

func (c *churnRecovery) rep(e *env) {
	h := sha256.New()
	for _, name := range []string{"ftsweep", "elastic"} {
		exp, _ := harness.LookupExperiment(name) // registry names, pinned by the harness tests
		s := e.tr.begin(e.root, "experiment."+name)
		res, err := exp.Run(harness.RunOpts{Opts: serial})
		e.tr.end(s)
		if err != nil {
			e.op(false, "rep %d: %s: %v", e.rep, name, err)
			return
		}
		for _, t := range res.Tables {
			fmt.Fprintln(h, t.String())
		}
		fmt.Fprintf(h, "%+v\n", res.Rows)
	}
	e.checkDigest(h)
}

func (c *churnRecovery) layer(e *env, m map[string]float64, seg segment) {
	m["ft.recoveries_per_rep"] = seg.perRep(seg.obs["ft_recoveries_total"])
	m["ft.drains_per_rep"] = seg.perRep(seg.obs["ft_drain_checkpoints_total"])
	m["ft.restored_mb_per_rep"] = seg.perRep(seg.obs["ft_restored_bytes_total"] / (1 << 20))
	m["mem.snapshot_delta_mb_per_rep"] = seg.perRep(seg.obs["mem_snapshot_delta_bytes_total"] / (1 << 20))
	if blocks := seg.obs["mem_snapshot_blocks_reused_total"] + seg.obs["mem_snapshot_blocks_copied_total"]; blocks > 0 {
		m["mem.blocks_reused_share"] = seg.obs["mem_snapshot_blocks_reused_total"] / blocks
	}
	supervisorProbes(e, m)
}

func (c *churnRecovery) close() {}

// --- flat_scale ---

type flatScale struct {
	vps int

	build, allreduce, storm time.Duration
	events                  uint64
	hostBytesPerRank        uint64
}

// flatImage is harness's scale-experiment image, rebuilt from the
// public builder because the harness keeps its copy private; the digest
// check fails if the two drift apart.
func flatImage() *elf.Image {
	return elf.NewBuilder("scaleapp").
		TaggedGlobal("iter", 0).
		TaggedGlobal("local_norm", 0).
		Const("mesh_dim", 64).
		Func("main", 4096).
		Func("compute", 16<<10).
		CodeBulk(4 << 20).
		DataBulk(256 << 10).
		RODataBulk(192 << 10).
		MustBuild()
}

func (f *flatScale) rep(e *env) {
	h := sha256.New()
	line := func(phase string, setup, done time.Duration, events uint64, migrations int, moved, perRank, shared uint64) {
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d\n", phase, setup, done, events, migrations, moved, perRank, shared)
	}
	if e.tr == nil {
		rows, _, err := harness.ScaleExperiment(harness.Opts{}, f.vps)
		if err != nil {
			e.op(false, "rep %d: %v", e.rep, err)
			return
		}
		for _, r := range rows {
			line(r.Phase, r.SetupDone, r.Time, r.Events, r.Migrations, r.MigratedBytes, r.PerRankBytes, r.SharedBytesPerRank)
		}
		e.checkDigest(h)
		return
	}

	// The same three calls harness.ScaleExperiment makes, timed apart.
	gauge := trace.NewMemGauge()
	timed := func(name string, sum *time.Duration, call func() error) error {
		s := e.tr.begin(e.root, name)
		t := time.Now()
		err := call()
		*sum += time.Since(t)
		e.tr.end(s)
		return err
	}
	var w *ampi.FlatWorld
	var arDone, stormDone time.Duration
	err := timed("flat.build", &f.build, func() (err error) {
		w, err = ampi.NewFlatWorld(ampi.FlatConfig{
			Machine: machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 8},
			VPs:     f.vps,
			Image:   flatImage(),
		})
		return err
	})
	if err == nil {
		gauge.SampleBuild()
		err = timed("flat.allreduce", &f.allreduce, func() (err error) { arDone, err = w.Allreduce(8); return err })
	}
	if err == nil {
		gauge.Sample()
		line("allreduce", w.SetupDone, arDone, w.EventsFired(), 0, 0, w.PerRankBytes, w.SharedBytesPerRank)
		err = timed("flat.storm", &f.storm, func() (err error) { stormDone, err = w.MigrationStorm(8); return err })
	}
	if err != nil {
		e.op(false, "rep %d: %v", e.rep, err)
		return
	}
	gauge.Sample()
	line("migration-storm", w.SetupDone, stormDone, w.EventsFired(), w.Migrations, w.MigratedBytes, w.PerRankBytes, w.SharedBytesPerRank)
	f.events += w.EventsFired()
	_, f.hostBytesPerRank = gauge.PerRank(f.vps)
	e.checkDigest(h)
}

func (f *flatScale) layer(e *env, m map[string]float64, seg segment) {
	m["ampi.flat_build_ms"] = seg.perRep(ms(f.build))
	m["ampi.flat_allreduce_ms"] = seg.perRep(ms(f.allreduce))
	m["ampi.flat_storm_ms"] = seg.perRep(ms(f.storm))
	m["sim.flat_event_ns"] = float64(f.allreduce+f.storm) / float64(f.events)
	m["ampi.flat_host_bytes_per_rank"] = float64(f.hostBytesPerRank)

	// One repetition on the parallel engine with two workers: the
	// evidence for keeping or deleting sim.ParallelEngine.
	before := obsValues(e.reg)
	t := time.Now()
	_, _, err := harness.ScaleExperiment(harness.Opts{SimWorkers: 2}, f.vps)
	m["sim.par2_rep_ms"] = ms(time.Since(t))
	e.op(err == nil, "sim-workers-2 repetition: %v", err)
	d := obsDelta(before, obsValues(e.reg))
	m["sim.par2_windows"] = d["sim_windows_total"]
	m["sim.cross_domain_events"] = d["sim_cross_domain_events_total"]
}

func (f *flatScale) close() {}
