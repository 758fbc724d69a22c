package ampi_test

import (
	"runtime"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/workloads/synth"
)

// TestMessagePathAllocatesNothing pins the message path's buffer
// semantics end to end: a send copies into a pooled payload, the
// receive copies it into the caller's buffer and returns the payload,
// and Wait frees the request, so a world in steady state exchanges
// messages without one allocation. Seven ranks on one PE each run a
// six-face halo exchange (three face sizes, six distinct peers), and
// ranks 0 and 1 then ping-pong four floats. Rank 0 reads the process's
// malloc count between two barriers, after a warm-up that grows every
// pool and queue to its working size.
func TestMessagePathAllocatesNothing(t *testing.T) {
	const (
		ranks  = 7
		warmup = 20
		steps  = 200
	)
	faceCells := [3]int{16, 24, 9} // per axis; distinct sizes share one pool
	var before, after runtime.MemStats
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			me, size := r.Rank(), r.Size()
			// Face f of axis f/2 faces the rank f/2+1 away, below for
			// even f and above for odd: six distinct peers. A message
			// sent on face f arrives on the peer's opposite face f^1.
			var peer [6]int
			var out, in [6][]float64
			for f := range peer {
				d := f/2 + 1
				if f%2 == 0 {
					d = size - d
				}
				peer[f] = (me + d) % size
				out[f] = make([]float64, faceCells[f/2])
				in[f] = make([]float64, faceCells[f/2])
			}
			ping, pong := []float64{1, 2, 3, 4}, make([]float64, 4)
			reqs := make([]*ampi.Request, 6)
			step := func() {
				for f := range in {
					reqs[f] = r.Irecv(peer[f], f^1, in[f])
				}
				for f := range out {
					r.Send(peer[f], f, out[f], 0)
				}
				r.Waitall(reqs)
				switch me {
				case 0:
					r.Send(1, 7, ping, 0)
					r.Wait(r.Irecv(1, 8, pong))
				case 1:
					r.Wait(r.Irecv(0, 7, pong))
					r.Send(0, 8, ping, 0)
				}
			}
			for i := 0; i < warmup; i++ {
				step()
			}
			r.Barrier()
			if me == 0 {
				runtime.ReadMemStats(&before)
			}
			for i := 0; i < steps; i++ {
				step()
			}
			r.Barrier()
			if me == 0 {
				runtime.ReadMemStats(&after)
			}
		},
	}
	w, err := ampi.NewWorld(smallConfig(ranks, core.KindNone), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// The two barriers and the reads around the window cost a few
	// mallocs of their own; the messages must cost none.
	msgs := uint64(steps * (ranks*6 + 2))
	if mallocs := after.Mallocs - before.Mallocs; mallocs >= msgs/100 {
		t.Errorf("%d steady-state messages made %d mallocs (%.3f per message), want 0",
			msgs, mallocs, float64(mallocs)/float64(msgs))
	}
}
