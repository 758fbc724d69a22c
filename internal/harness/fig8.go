package harness

import (
	"fmt"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/scenario"
	"provirt/internal/sim"
	"provirt/internal/trace"
	"provirt/internal/workloads/adcirc"
)

// Fig8Row is one point of Fig. 8: time to migrate one virtual rank
// with the given heap size, under TLSglobals vs PIEglobals.
type Fig8Row struct {
	HeapBytes uint64
	TLSTime   sim.Time
	PIETime   sim.Time
	TLSBytes  uint64
	PIEBytes  uint64
}

// Fig8HeapSizes are the swept per-rank heap sizes (the paper sweeps
// 1 MB to 100 MB).
func Fig8HeapSizes() []uint64 {
	return []uint64{1 << 20, 4 << 20, 16 << 20, 64 << 20, 100 << 20}
}

// Fig8Migration measures single-rank migration time across node
// boundaries as heap size grows, comparing TLSglobals (rank state only)
// with PIEglobals (rank state plus the ADCIRC-sized 14 MB code segment
// and data segment), reproducing Fig. 8.
func Fig8Migration(o Opts) ([]Fig8Row, *trace.Table, error) {
	measure := func(kind core.Kind, heap uint64) (sim.Time, uint64, error) {
		prog := &ampi.Program{
			Image: adcirc.Image(),
			Main: func(r *ampi.Rank) {
				if _, err := r.Ctx().Heap.AllocBallast(heap, "user-heap"); err != nil {
					panic(err)
				}
				r.Migrate()
			},
		}
		sp := scenario.Spec{
			Machine:  machineShape(2, 1, 1),
			VPs:      1,
			Method:   kind,
			Program:  prog,
			Balancer: lb.RotateLB{},
			Tracer: o.tracerFor(func(ts *TraceSel) bool {
				return ts.Method == kind && ts.Heap == heap
			}),
		}
		w, err := sp.Run()
		if err != nil {
			return 0, 0, err
		}
		recs := w.LastMigrations()
		if len(recs) != 1 {
			return 0, 0, fmt.Errorf("%d migrations recorded, want 1", len(recs))
		}
		return recs[0].Duration, recs[0].Bytes, nil
	}

	// Flatten the (heap size x method) grid into independent jobs.
	heaps := Fig8HeapSizes()
	kinds := []core.Kind{core.KindTLSglobals, core.KindPIEglobals}
	times := make([]sim.Time, len(heaps)*len(kinds))
	bytes := make([]uint64, len(heaps)*len(kinds))
	err := o.runner().Run(len(times), func(i int) error {
		heap, kind := heaps[i/len(kinds)], kinds[i%len(kinds)]
		t, b, err := measure(kind, heap)
		if err != nil {
			return fmt.Errorf("fig8 %s heap=%d: %w", kind, heap, err)
		}
		times[i], bytes[i] = t, b
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []Fig8Row
	for i, heap := range heaps {
		rows = append(rows, Fig8Row{
			HeapBytes: heap,
			TLSTime:   times[i*2], PIETime: times[i*2+1],
			TLSBytes: bytes[i*2], PIEBytes: bytes[i*2+1],
		})
	}
	t := trace.NewTable("Figure 8: migration time vs per-rank heap size (lower is better)",
		"Heap", "TLSglobals", "PIEglobals", "PIE/TLS", "PIE extra bytes")
	for _, r := range rows {
		t.AddRow(trace.FormatBytes(int64(r.HeapBytes)),
			trace.FormatDuration(r.TLSTime),
			trace.FormatDuration(r.PIETime),
			fmt.Sprintf("%.2fx", float64(r.PIETime)/float64(r.TLSTime)),
			trace.FormatBytes(int64(r.PIEBytes-r.TLSBytes)))
	}
	return rows, t, nil
}
