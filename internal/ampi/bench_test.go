package ampi_test

import (
	"fmt"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/workloads/synth"
)

// BenchmarkAmpiPingPong measures the point-to-point hot path: one
// round trip of a small payload between two ranks on one PE per
// iteration. The engine's queue holds events by value, envelopes,
// payloads and requests are pooled and each receive lands in the
// caller's buffer, so it reports 0 allocs/op; TestMessagePathAllocatesNothing is the test that holds it.
func BenchmarkAmpiPingPong(b *testing.B) {
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
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAmpiManyPending stresses message matching with a deep
// unexpected-message queue: rank 0 receives in the reverse of arrival
// order, so every receive under the old linear scan walked the whole
// mailbox.
func BenchmarkAmpiManyPending(b *testing.B) {
	const pending = 256
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			if r.Rank() == 1 {
				for i := 0; i < b.N; i++ {
					for tag := 0; tag < pending; tag++ {
						r.Send(0, tag, nil, 8)
					}
					r.Wait(r.Irecv(0, 0, nil)) // round-trip gate, keeps queues bounded
				}
				return
			}
			for i := 0; i < b.N; i++ {
				for tag := pending - 1; tag >= 0; tag-- {
					r.Wait(r.Irecv(1, tag, nil))
				}
				r.Send(1, 0, nil, 8)
			}
		},
	}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
		VPs:       2,
		Privatize: core.KindPIEglobals,
	}, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := w.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkVarAccess measures one store and one load of a privatized
// global through the method's access path, per privatization method.
func BenchmarkVarAccess(b *testing.B) {
	for _, kind := range []core.Kind{core.KindNone, core.KindTLSglobals, core.KindPIEglobals} {
		b.Run(kind.String(), func(b *testing.B) {
			var total uint64
			prog := &ampi.Program{
				Image: synth.HelloImage(),
				Main: func(r *ampi.Rank) {
					h := r.Ctx().Var("my_rank")
					for i := 0; i < b.N; i++ {
						h.Store(uint64(i))
						total += h.Load()
					}
				},
			}
			w, err := ampi.NewWorld(ampi.Config{
				Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1},
				VPs:       1,
				Privatize: kind,
			}, prog)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := w.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAllreduce measures one one-element allreduce across the
// world per iteration, at two world sizes on four PEs.
func BenchmarkAllreduce(b *testing.B) {
	for _, vps := range []int{8, 64} {
		b.Run(fmt.Sprintf("vps-%d", vps), func(b *testing.B) {
			prog := &ampi.Program{
				Image: synth.EmptyImage(),
				Main: func(r *ampi.Rank) {
					for i := 0; i < b.N; i++ {
						r.Allreduce([]float64{1}, ampi.OpSum)
					}
				},
			}
			w, err := ampi.NewWorld(ampi.Config{
				Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 4},
				VPs:       vps,
				Privatize: core.KindPIEglobals,
			}, prog)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			if err := w.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkWarmWorld builds and runs switch_msg's 64-rank Jacobi world
// once per iteration after a first, untimed one, so B/op and allocs/op
// are what a warm world allocates: every world after the first runs on
// the message scratch and event queue the one before it gave back.
// TestWarmWorldAllocationBudget holds its bytes per rank.
func BenchmarkWarmWorld(b *testing.B) {
	runSwitchWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSwitchWorld(b)
	}
}
