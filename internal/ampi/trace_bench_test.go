package ampi_test

import (
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/trace"
	"provirt/internal/workloads/synth"
)

// The tracing acceptance criterion: a disabled tracer must be free.
// Every hook site guards on a nil Tracer, so the untraced hot path pays
// one pointer comparison per hook. Compare these two benchmarks — the
// untraced one must stay within noise of BenchmarkAmpiPingPong, and the
// traced one quantifies the enabled cost (one struct append per event).

func pingPongWorld(b *testing.B, tracer trace.Tracer) *ampi.World {
	b.Helper()
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			payload, in := []float64{1, 2, 3, 4}, make([]float64, 4)
			if r.Rank() == 0 {
				for i := 0; i < b.N; i++ {
					r.Send(1, 7, payload, 0)
					r.Wait(r.Irecv(1, 8, in))
				}
			} else {
				for i := 0; i < b.N; i++ {
					r.Wait(r.Irecv(0, 7, in))
					r.Send(0, 8, payload, 0)
				}
			}
		},
	}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindPIEglobals,
		Tracer:    tracer,
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkAmpiPingPongUntraced is the nil-tracer baseline over the
// same hook-instrumented code paths.
func BenchmarkAmpiPingPongUntraced(b *testing.B) {
	w := pingPongWorld(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAmpiPingPongTraced records the default event kinds while the
// benchmark runs.
func BenchmarkAmpiPingPongTraced(b *testing.B) {
	w := pingPongWorld(b, trace.NewRecorder())
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}
