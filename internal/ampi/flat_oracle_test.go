package ampi

import (
	"fmt"
	"testing"

	"provirt/internal/elf"
	"provirt/internal/machine"
	"provirt/internal/sim"
)

// flatOracle is the flat allreduce as it was written before same-domain
// edges were applied in place: every tree edge, whatever domains its
// ends sit in, is one engine event, dispatched in (time, stamp) order.
// It is kept as the reference the cascade is held to — the claim that
// arrival order cannot matter (DESIGN.md §11) is checked here rank by
// rank, not argued. Delete it with the parallel engine (ROADMAP item
// 2b): once nothing needs a second dispatch order to be compared
// against, the cascade's own tests are enough.
type flatOracle struct {
	w                 *FlatWorld
	reduceFn, bcastFn sim.TimedCall
}

func newFlatOracle(w *FlatWorld) *flatOracle {
	o := &flatOracle{w: w}
	o.reduceFn, o.bcastFn = o.reduceArrive, o.bcastArrive
	return o
}

func (o *flatOracle) allreduce(bytes uint64) (sim.Time, error) {
	w := o.w
	w.begin()
	for d := range w.doms {
		w.doms[d].done = 0
	}
	w.collBytes = bytes
	for vp := range w.ranks {
		if w.ranks[vp].pending == 0 {
			o.reduceComplete(w.eng, &w.ranks[vp])
		}
	}
	err := w.eng.Run(func() bool { return w.doneRanks() == len(w.ranks) })
	if err != nil {
		return 0, fmt.Errorf("oracle allreduce stalled: %w", err)
	}
	for vp := range w.ranks {
		w.ranks[vp].pending = int32(binomialChildCount(vp, len(w.ranks)))
	}
	return w.Time(), nil
}

func (o *flatOracle) reduceComplete(s sim.Sched, r *flatRank) {
	w := o.w
	if r.parent < 0 {
		o.bcastSend(s, r)
		w.dom(r).done++
		w.advance(r, r.clock)
		return
	}
	p := &w.ranks[r.parent]
	depart := r.clock + w.Cluster.Cost.MsgSendOverhead
	arrive := w.transfer(s, depart, w.pes[r.pe], w.pes[p.pe], w.collBytes)
	r.clock = depart
	s.AtCallIn(int(w.domOf[p.pe]), arrive, o.reduceFn, p)
}

func (o *flatOracle) reduceArrive(s sim.Sched, now sim.Time, arg any) {
	p := arg.(*flatRank)
	at := now + o.w.Cluster.Cost.MsgRecvOverhead
	if at > p.clock {
		p.clock = at
	}
	if p.pending--; p.pending == 0 {
		o.reduceComplete(s, p)
	}
}

func (o *flatOracle) bcastSend(s sim.Sched, r *flatRank) {
	w := o.w
	rel := int(r.vp)
	_, limit := binomialNode(rel, len(w.ranks))
	for m := 1; m < limit && rel+m < len(w.ranks); m <<= 1 {
		c := &w.ranks[rel+m]
		r.clock += w.Cluster.Cost.MsgSendOverhead
		arrive := w.transfer(s, r.clock, w.pes[r.pe], w.pes[c.pe], w.collBytes)
		s.AtCallIn(int(w.domOf[c.pe]), arrive, o.bcastFn, c)
	}
	w.advance(r, r.clock)
}

func (o *flatOracle) bcastArrive(s sim.Sched, now sim.Time, arg any) {
	w := o.w
	c := arg.(*flatRank)
	c.clock = now + w.Cluster.Cost.MsgRecvOverhead
	o.bcastSend(s, c)
	w.dom(c).done++
	w.advance(c, c.clock)
}

func oracleImage() *elf.Image {
	return elf.NewBuilder("flatoracle").
		TaggedGlobal("iter", 0).
		Func("main", 4096).
		CodeBulk(1 << 20).
		DataBulk(64 << 10).
		RODataBulk(48 << 10).
		MustBuild()
}

func oracleWorld(t *testing.T, mc machine.Config, vps int) *FlatWorld {
	t.Helper()
	w, err := NewFlatWorld(FlatConfig{Machine: mc, VPs: vps, Image: oracleImage()})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestFlatAllreduceMatchesPerEdgeOracle runs the same collective on two
// identically prepared worlds — the cascade on one, one engine event
// per edge on the other — and requires every rank clock, the world
// clock and the modelled event count to agree.
func TestFlatAllreduceMatchesPerEdgeOracle(t *testing.T) {
	shapes := []machine.Config{
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 8},
		{Nodes: 4, ProcsPerNode: 2, PEsPerProc: 2},
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1}, // one domain: nothing is dispatched
	}
	// prepare runs on both worlds before the compared collective.
	preps := []struct {
		name    string
		prepare func(t *testing.T, w *FlatWorld)
	}{
		{"fresh", func(*testing.T, *FlatWorld) {}},
		{"stormed", func(t *testing.T, w *FlatWorld) {
			// Every third rank away from its home PE: the tree now spans
			// domains its block placement did not.
			if _, err := w.MigrationStorm(3); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, mc := range shapes {
		for _, vps := range []int{1, 2, 3, 1000, 4096, 65537} {
			for _, prep := range preps {
				name := fmt.Sprintf("%dx%dx%d/vps=%d/%s", mc.Nodes, mc.ProcsPerNode, mc.PEsPerProc, vps, prep.name)
				t.Run(name, func(t *testing.T) {
					got, want := oracleWorld(t, mc, vps), oracleWorld(t, mc, vps)
					prep.prepare(t, got)
					prep.prepare(t, want)
					before := want.Dispatches()
					modelled := got.EventsFired()

					gotDone, err := got.Allreduce(8)
					if err != nil {
						t.Fatal(err)
					}
					wantDone, err := newFlatOracle(want).allreduce(8)
					if err != nil {
						t.Fatal(err)
					}
					if gotDone != wantDone || got.Time() != want.Time() {
						t.Fatalf("finished at %v (Time %v), oracle at %v (Time %v)",
							gotDone, got.Time(), wantDone, want.Time())
					}
					for vp := range want.ranks {
						if g, o := got.ranks[vp], want.ranks[vp]; g != o {
							t.Fatalf("rank %d: %+v, oracle %+v", vp, g, o)
						}
					}
					edges := want.Dispatches() - before
					if n := got.EventsFired() - modelled; n != edges || edges != uint64(2*(vps-1)) {
						t.Fatalf("modelled %d arrivals, oracle dispatched %d, tree has %d edges",
							n, edges, 2*(vps-1))
					}
					if len(got.doms) == 1 && got.Dispatches() != 0 {
						t.Fatalf("one-domain world dispatched %d engine events, want 0", got.Dispatches())
					}
				})
			}
		}
	}
}
