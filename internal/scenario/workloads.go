package scenario

import (
	"cmp"
	"fmt"
	"sort"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/workloads/adcirc"
	"provirt/internal/workloads/amr"
	"provirt/internal/workloads/jacobi"
	"provirt/internal/workloads/synth"
)

// WorkloadParams parameterizes a registered workload's constructor.
// Every workload accepts Quick; Validate refuses each other parameter
// on a workload that does not read it, and outside its range.
type WorkloadParams struct {
	// Quick selects a reduced problem size for smoke runs.
	Quick bool `json:"quick,omitempty"`
	// hasLB reports whether the run has a load balancer; workloads
	// with a periodic AMPI_Migrate step skip it when nothing would
	// rebalance. It is derived: Build sets it from the Spec's Balancer,
	// and no caller or document can say otherwise.
	hasLB bool
	// Grid is jacobi's grid side (≤ 64) and Iters its sweeps (≤ 1000);
	// zero keeps Quick's size. Their narrow types keep a Spec, which
	// every POSTed point allocates, in its size class.
	Grid  uint16 `json:"grid,omitempty"`
	Iters uint16 `json:"iters,omitempty"`
	// HeapBytes is the user heap ballast allocates per rank, at most what
	// the rank's range holds beside its stack and 1 GiB for the program.
	HeapBytes uint64 `json:"heap_bytes,omitempty"`
}

// Workload is a registered program: a name launchers select by, a
// one-line description, and a constructor returning the program plus
// an optional report function that prints the collected output after
// the run.
type Workload struct {
	Name        string
	Description string
	New         func(p WorkloadParams) (*ampi.Program, func())
	// reads names the parameters past quick that New reads.
	reads []string
}

// AdcircConfig is the adcirc workload's configuration, for callers that
// hold one without building the program (harness.AdcircScaling).
type AdcircConfig = adcirc.Config

// adcircConfig is the configuration the adcirc workload runs under p.
func adcircConfig(p WorkloadParams) adcirc.Config {
	cfg := adcirc.DefaultConfig()
	if p.Quick {
		cfg.Width, cfg.Height, cfg.Steps, cfg.LBPeriod = 96, 128, 8, 4
	}
	if !p.hasLB {
		cfg.LBPeriod = 0
	}
	return cfg
}

// AdcircParams returns the parameters under which the adcirc workload,
// given a balancer, runs cfg: none for adcirc.DefaultConfig() and quick
// for the quick size. No document can say any other config, so it is an
// error.
func AdcircParams(cfg AdcircConfig) (WorkloadParams, error) {
	for _, p := range []WorkloadParams{{hasLB: true}, {Quick: true, hasLB: true}} {
		if adcircConfig(p) == cfg {
			p.hasLB = false
			return p, nil
		}
	}
	return WorkloadParams{}, fmt.Errorf("scenario: adcirc config %+v is neither the default nor the quick size", cfg)
}

var workloadRegistry = map[string]Workload{}

// RegisterWorkload adds a workload to the registry; registering a
// duplicate name panics (registration is init-time wiring).
func RegisterWorkload(w Workload) {
	if w.Name == "" || w.New == nil {
		panic("scenario: workload needs a name and a constructor")
	}
	if _, dup := workloadRegistry[w.Name]; dup {
		panic(fmt.Sprintf("scenario: workload %q registered twice", w.Name))
	}
	workloadRegistry[w.Name] = w
}

// LookupWorkload finds a registered workload by name.
func LookupWorkload(name string) (Workload, bool) {
	w, ok := workloadRegistry[name]
	return w, ok
}

// Workloads returns every registered workload sorted by name.
func Workloads() []Workload {
	out := make([]Workload, 0, len(workloadRegistry))
	for _, w := range workloadRegistry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WorkloadNames returns the sorted registered names.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloadRegistry))
	for name := range workloadRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterWorkload(Workload{
		Name:        "hello",
		Description: "MPI hello world storing its rank in a privatized global (Fig. 2/3)",
		New: func(WorkloadParams) (*ampi.Program, func()) {
			var results []synth.HelloResult
			prog := synth.Hello(func(hr synth.HelloResult) { results = append(results, hr) })
			return prog, func() {
				sort.Slice(results, func(i, j int) bool { return results[i].VP < results[j].VP })
				for _, hr := range results {
					fmt.Printf("rank: %d\n", hr.Printed)
				}
			}
		},
	})
	RegisterWorkload(Workload{
		Name:        "ping",
		Description: "two-ULT context-switch microbenchmark (Fig. 6)",
		New: func(WorkloadParams) (*ampi.Program, func()) {
			return synth.Ping(), func() {
				fmt.Printf("ping: %d context switches between two user-level threads\n", synth.PingCount)
			}
		},
	})
	RegisterWorkload(Workload{
		Name:        "empty",
		Description: "init/finalize only; measures startup (Fig. 5)",
		New: func(WorkloadParams) (*ampi.Program, func()) {
			return synth.Empty(), nil
		},
	})
	RegisterWorkload(Workload{
		Name:        "checkpointed",
		Description: "iterative checkpointable kernel whose ranks verify no restart lost or double-counted work (ftsweep, elastic)",
		New: func(WorkloadParams) (*ampi.Program, func()) {
			return synth.CheckpointedChecked(24, 8*time.Millisecond), nil
		},
	})
	RegisterWorkload(Workload{
		Name:        "jacobi",
		Description: "Jacobi-3D stencil with privatized inner-loop variables (Fig. 7)",
		reads:       []string{"grid", "iters"},
		New: func(p WorkloadParams) (*ampi.Program, func()) {
			cfg := jacobi.DefaultConfig()
			if p.Quick {
				cfg.NX, cfg.NY, cfg.NZ, cfg.Iters = 12, 12, 12, 4
			}
			g := int(p.Grid)
			cfg.NX, cfg.NY, cfg.NZ = cmp.Or(g, cfg.NX), cmp.Or(g, cfg.NY), cmp.Or(g, cfg.NZ)
			cfg.Iters = cmp.Or(int(p.Iters), cfg.Iters)
			var results []jacobi.Result
			prog := jacobi.New(cfg, func(r jacobi.Result) { results = append(results, r) })
			return prog, func() {
				var resid float64
				var accesses uint64
				for _, r := range results {
					resid = r.Residual
					accesses += r.Accesses
				}
				fmt.Printf("jacobi3d: %dx%dx%d grid, %d iterations, residual %.6g, %d privatized accesses\n",
					cfg.NX, cfg.NY, cfg.NZ, cfg.Iters, resid, accesses)
			}
		},
	})
	RegisterWorkload(Workload{
		Name:        "adcirc",
		Description: "ADCIRC storm-surge surrogate with dynamic load imbalance (§4.6)",
		New: func(p WorkloadParams) (*ampi.Program, func()) {
			cfg := adcircConfig(p)
			var volume uint64
			prog := adcirc.New(cfg, func(r adcirc.Result) { volume += r.WetCellSteps })
			return prog, func() {
				fmt.Printf("adcirc: %dx%d grid, %d steps, total wet-cell updates %d (oracle %d)\n",
					cfg.Width, cfg.Height, cfg.Steps, volume, adcirc.TotalWetCellSteps(cfg))
			}
		},
	})
	RegisterWorkload(Workload{
		Name:        "ballast",
		Description: "the ADCIRC image with heap_bytes of user heap per rank, migrated once if a balancer is set (Fig. 8, §6 memory)",
		reads:       []string{"heap_bytes"},
		New: func(p WorkloadParams) (*ampi.Program, func()) {
			return &ampi.Program{Image: adcirc.Image(), Main: func(r *ampi.Rank) {
				if p.HeapBytes > 0 {
					if _, err := r.Ctx().Heap.AllocBallast(p.HeapBytes, "user-heap"); err != nil {
						panic(err)
					}
				}
				if p.hasLB {
					r.Migrate()
				}
			}}, nil
		},
	})
	RegisterWorkload(Workload{
		Name:        "amr",
		Description: "block-structured AMR chasing a shock front with regrid LB",
		New: func(p WorkloadParams) (*ampi.Program, func()) {
			cfg := amr.DefaultConfig()
			if p.Quick {
				cfg.BlocksX, cfg.BlocksY, cfg.Steps, cfg.RegridEvery = 8, 8, 8, 4
			}
			if !p.hasLB {
				cfg.RegridEvery = 0
			}
			var updates uint64
			prog := amr.New(cfg, func(r amr.Result) { updates += r.CellUpdates })
			return prog, func() {
				fmt.Printf("amr: %dx%d blocks, %d steps, fine-cell updates %d (oracle %d)\n",
					cfg.BlocksX, cfg.BlocksY, cfg.Steps, updates, amr.TotalCellUpdates(cfg))
			}
		},
	})
}
