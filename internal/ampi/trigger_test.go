package ampi_test

import (
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/lb"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/workloads/synth"
)

// TestImbalanceTriggerSkipsBalancedLoad: with perfectly balanced
// ranks, the adaptive trigger skips every balancing step; with skewed
// ranks it fires.
func TestImbalanceTriggerSkipsBalancedLoad(t *testing.T) {
	run := func(loads []sim.Time) *ampi.World {
		prog := &ampi.Program{
			Image: synth.EmptyImage(),
			Main: func(r *ampi.Rank) {
				for round := 0; round < 3; round++ {
					r.Compute(loads[r.Rank()%len(loads)])
					r.Migrate()
				}
			},
		}
		w, err := ampi.NewWorld(ampi.Config{
			Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2},
			VPs:       4,
			Privatize: core.KindPIEglobals,
			Balancer:  lb.GreedyRefineLB{},
			Trigger:   lb.ImbalanceTrigger{Threshold: 1.2},
		}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return w
	}

	balanced := run([]sim.Time{1e6, 1e6, 1e6, 1e6})
	if balanced.Migrations != 0 {
		t.Errorf("balanced run migrated %d times", balanced.Migrations)
	}
	if balanced.SkippedBalances != 3 {
		t.Errorf("balanced run skipped %d of 3 balance points", balanced.SkippedBalances)
	}

	// Skew across PEs: ranks 0-1 (PE 0) heavy, ranks 2-3 (PE 1) light.
	skewed := run([]sim.Time{10e6, 10e6, 1e6, 1e6})
	if skewed.Migrations == 0 {
		t.Error("skewed run never migrated despite trigger")
	}
}

// API misuse must fail loudly inside the rank body and surface as a
// run error that says what went wrong, rather than hanging.
func TestAPIMisusePanicsSurface(t *testing.T) {
	const stale = "ampi: Wait on a request already completed or not posted by rank 0"
	cases := map[string]struct {
		body func(r *ampi.Rank)
		want string
	}{
		"negative tag":  {func(r *ampi.Rank) { r.Send(0, -5, nil, 0) }, "negative tag -5 is reserved"},
		"bad peer":      {func(r *ampi.Rank) { r.Send(99, 1, nil, 0) }, "peer 99 out of range"},
		"wildcard send": {func(r *ampi.Rank) { r.Send(0, ampi.AnyTag, nil, 0) }, "send with wildcard tag"},
		"foreign wait":  {func(r *ampi.Rank) { r.Wait(&ampi.Request{}) }, stale},
		// Wait frees the request (MPI_Wait), so the handle is dead.
		"second wait": {func(r *ampi.Rank) {
			if r.Rank() == 1 {
				r.Send(0, 1, nil, 0)
				return
			}
			q := r.Irecv(1, 1, nil)
			r.Wait(q)
			r.Wait(q)
		}, stale},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			prog := &ampi.Program{Image: synth.EmptyImage(), Main: c.body}
			w, err := ampi.NewWorld(smallConfig(2, core.KindNone), prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Run error %v, want one containing %q", err, c.want)
			}
		})
	}
}

// TestTruncatedReceiveFailsRun: a message longer than the receive
// buffer fails the run with MPI_ERR_TRUNCATE, naming the receiver, the
// source, the tag and both lengths, whether it lands on the posted
// receive or waits unexpected until the receive is posted.
func TestTruncatedReceiveFailsRun(t *testing.T) {
	const want = "ampi: rank 1: message from rank 0 with tag 4 holds 3 values, receive buffer 2 (MPI_ERR_TRUNCATE)"
	for name, late := range map[string]sim.Time{"posted first": 0, "arrived first": 1e6} {
		t.Run(name, func(t *testing.T) {
			prog := &ampi.Program{Image: synth.EmptyImage(), Main: func(r *ampi.Rank) {
				if r.Rank() == 0 {
					r.Send(1, 4, []float64{1, 2, 3}, 0)
					return
				}
				r.Compute(late)
				r.Wait(r.Irecv(0, 4, make([]float64, 2)))
			}}
			w, err := ampi.NewWorld(smallConfig(2, core.KindNone), prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(); err == nil || err.Error() != want {
				t.Fatalf("Run error %v, want %q", err, want)
			}
		})
	}
}
