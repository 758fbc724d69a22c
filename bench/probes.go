package main

import (
	"math/rand"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

// Isolated probes: one layer's public functions timed on their own,
// outside any repetition, so a change to that layer shows even where
// the workload's wall clock hides it.

// adcircRankHeap builds a heap shaped like one ADCIRC rank under
// PIEglobals: the code segment as footprint-only ballast, the data
// segment and stack with payload words, the mesh arrays as ballast, and
// a few hundred user blocks. It returns the payload bytes a first
// Serialize has to copy.
func adcircRankHeap() (h *mem.Heap, user []*mem.Block, payload uint64) {
	h = mem.NewHeap(0)
	must := func(b *mem.Block, err error) *mem.Block {
		if err != nil {
			panic(err) // sizes are constants far inside the rank's range
		}
		if b.Words != nil {
			payload += b.Size
		}
		return b
	}
	must(h.AllocBallast(14<<20, "code"))
	must(h.Alloc(3<<20, "data"))
	must(h.Alloc(1<<20, "stack"))
	must(h.AllocBallast(3<<19, "mesh"))
	for i := 0; i < 256; i++ {
		user = append(user, must(h.Alloc(16<<10, "user")))
	}
	return h, user, payload
}

func memProbes(m map[string]float64) {
	var full, delta, restore []float64
	for i := 0; i < 7; i++ {
		h, user, payload := adcircRankHeap()
		t := time.Now()
		snap := h.Serialize()
		full = append(full, float64(payload)/(1<<20)/time.Since(t).Seconds())

		for j := 0; j < len(user); j += 10 {
			user[j].Touch()
		}
		t = time.Now()
		snap = h.Serialize()
		delta = append(delta, us(time.Since(t)))

		t = time.Now()
		mem.Restore(snap)
		restore = append(restore, us(time.Since(t)))
	}
	m["mem.serialize_full_mb_per_s"] = median(full)
	m["mem.serialize_delta_us"] = median(delta)
	m["mem.restore_us"] = median(restore)

	h, _, _ := adcircRankHeap()
	const pairs = 200_000
	t := time.Now()
	for i := 0; i < pairs; i++ {
		b, err := h.Alloc(256, "probe")
		if err != nil {
			panic(err)
		}
		if err := h.Free(b.Addr); err != nil {
			panic(err)
		}
	}
	m["mem.alloc_free_ns"] = float64(time.Since(t)) / pairs
}

// engineProbe schedules events at pseudo-random virtual times on a bare
// serial engine and drains them, returning host nanoseconds per event.
func engineProbe() float64 {
	const events = 200_000
	var samples []float64
	nop := func(any) {}
	for i := 0; i < 5; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		eng := sim.NewEngine()
		t := time.Now()
		for j := 0; j < events; j++ {
			eng.AtCall(sim.Time(rng.Int63n(int64(time.Second))), nop, nil)
		}
		eng.Drain()
		samples = append(samples, float64(time.Since(t))/events)
	}
	return median(samples)
}

// supervisorProbes times one supervised point through each of the two
// supervisors: ft.Run under a crash plan and Spec.RunElastic under a
// churn schedule. Both must complete; the counts they report are in
// the churn_recovery repetitions' obs deltas.
func supervisorProbes(e *env, m map[string]float64) {
	const dir = "/scratch/bench"
	policy := &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: dir, Interval: 32 * time.Millisecond}

	var runMs, elasticMs []float64
	for i := 0; i < 5; i++ {
		sp := scenario.Spec{
			Machine:    machine.Config{Nodes: 3, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:        6,
			Method:     core.KindPIEglobals,
			Checkpoint: policy,
		}
		cfg, err := sp.Config()
		if err != nil {
			e.op(false, "ft.Run probe: %v", err)
			return
		}
		finals := make([]uint64, sp.VPs)
		plan := ft.CrashPlan(7, sp.Machine.Nodes, 120*time.Millisecond, time.Second)
		t := time.Now()
		_, err = ft.Run(ft.Job{
			Config:      cfg,
			Program:     func() *ampi.Program { return synth.Checkpointed(24, 8*time.Millisecond, finals) },
			Plan:        plan,
			Recovery:    ft.Spare,
			MaxRestarts: len(plan.Crashes()) + 1,
		})
		runMs = append(runMs, ms(time.Since(t)))
		e.op(err == nil, "ft.Run probe: %v", err)

		el := scenario.Spec{
			Machine:        machine.Config{Nodes: 4, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:            8,
			Method:         core.KindPIEglobals,
			Workload:       "jacobi",
			WorkloadParams: scenario.WorkloadParams{Quick: true},
			Checkpoint:     &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: dir, Interval: 5 * time.Millisecond},
			Churn: &ft.ChurnSpec{
				Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 120 * time.Millisecond,
				Horizon: 200 * time.Millisecond, MaxEvents: 2,
			},
		}
		t = time.Now()
		_, _, err = el.RunElastic()
		elasticMs = append(elasticMs, ms(time.Since(t)))
		e.op(err == nil, "RunElastic probe: %v", err)
	}
	m["ft.run_ms"] = median(runMs)
	m["ft.elastic_ms"] = median(elasticMs)
}
