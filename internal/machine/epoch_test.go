package machine

import (
	"fmt"
	"testing"
	"time"

	"provirt/internal/sim"
)

func sec(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

func TestEpochZeroIsConstruction(t *testing.T) {
	cl, err := New(Config{Nodes: 3, ProcsPerNode: 2, PEsPerProc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Epoch(); got != 0 {
		t.Fatalf("fresh cluster epoch = %d, want 0", got)
	}
	evs := cl.Events()
	if len(evs) != 1 {
		t.Fatalf("fresh cluster has %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.At != 0 || ev.Nodes != 3 || ev.NodesBuilt != 3 || ev.PEs != 12 || len(ev.Added) != 3 {
		t.Errorf("construction event = %+v", ev)
	}
	for _, n := range cl.Nodes {
		if !n.Live(0) || !n.Live(sec(1000)) {
			t.Errorf("node %d not live on a static cluster", n.ID)
		}
	}
}

func TestAddNodesGrowsShape(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2})
	added, err := cl.AddNodes(sec(10), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 2 || added[0].ID != 2 || added[1].ID != 3 {
		t.Fatalf("added node ids = %v", added)
	}
	if got := cl.Epoch(); got != 1 {
		t.Fatalf("epoch after AddNodes = %d, want 1", got)
	}
	// New nodes carry the construction per-node shape and continue the
	// global id sequences.
	if got := len(cl.PEs()); got != 16 {
		t.Fatalf("PE count after expand = %d, want 16", got)
	}
	last := cl.PEs()[15]
	if last.ID != 15 || last.Proc.Node.ID != 3 {
		t.Errorf("last PE = id %d on node %d, want 15 on 3", last.ID, last.Proc.Node.ID)
	}
	if added[0].JoinedAt != sec(10) || added[0].RetiredAt >= 0 {
		t.Errorf("arrival membership = joined %v retired %v", added[0].JoinedAt, added[0].RetiredAt)
	}
	// Before the join instant the arrivals are not members.
	if added[0].Live(sec(9)) || !added[0].Live(sec(10)) {
		t.Error("arrival liveness window wrong")
	}
	if got := len(cl.LiveNodes(sec(9))); got != 2 {
		t.Errorf("live nodes before arrival = %d, want 2", got)
	}
	if got := len(cl.LiveNodes(sec(10))); got != 4 {
		t.Errorf("live nodes after arrival = %d, want 4", got)
	}
	if got := len(cl.LivePEs(sec(10))); got != 16 {
		t.Errorf("live PEs after arrival = %d, want 16", got)
	}
}

func TestRetireNodesWithNotice(t *testing.T) {
	cl, _ := New(Config{Nodes: 3, ProcsPerNode: 1, PEsPerProc: 2})
	if err := cl.RetireNodes(sec(20), sec(5), 1); err != nil {
		t.Fatal(err)
	}
	n := cl.Nodes[1]
	// The notice window keeps the node usable until at+notice.
	if !n.Live(sec(24)) || n.Live(sec(25)) {
		t.Errorf("noticed eviction window wrong: retired at %v", n.RetiredAt)
	}
	ev := cl.Events()[1]
	if ev.At != sec(20) || ev.Notice != sec(5) || len(ev.Retired) != 1 || ev.Nodes != 2 {
		t.Errorf("retire event = %+v", ev)
	}
	if got := len(cl.LiveNodes(sec(30))); got != 2 {
		t.Errorf("live nodes after leave = %d, want 2", got)
	}
}

func TestRetireNodesValidation(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	if err := cl.RetireNodes(0, 0); err == nil {
		t.Error("empty retire accepted")
	}
	if err := cl.RetireNodes(0, 0, 7); err == nil {
		t.Error("unknown node accepted")
	}
	if err := cl.RetireNodes(0, 0, 1, 1); err == nil {
		t.Error("duplicate id accepted")
	}
	if err := cl.RetireNodes(0, -sec(1), 1); err == nil {
		t.Error("negative notice accepted")
	}
	if err := cl.RetireNodes(0, 0, 0, 1); err == nil {
		t.Error("retiring every node accepted")
	}
	if err := cl.RetireNodes(sec(5), 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cl.RetireNodes(sec(6), 0, 1); err == nil {
		t.Error("double retire accepted")
	}
	if err := cl.RetireNodes(sec(1), 0, 0); err == nil {
		t.Error("out-of-order event accepted")
	}
	if _, err := cl.AddNodes(sec(1), 1); err == nil {
		t.Error("out-of-order AddNodes accepted")
	}
	if _, err := cl.AddNodes(sec(6), 0); err == nil {
		t.Error("zero-count AddNodes accepted")
	}
}

func TestEpochAt(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	cl.AddNodes(sec(10), 1)
	cl.RetireNodes(sec(20), sec(2), 0)
	for _, c := range []struct {
		t    sim.Time
		want int
	}{{0, 0}, {sec(9), 0}, {sec(10), 1}, {sec(19), 1}, {sec(20), 2}, {sec(100), 2}} {
		if got := cl.EpochAt(c.t); got != c.want {
			t.Errorf("EpochAt(%v) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestDomainPlanAtEpochs(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2})
	// Epoch 0 plan must be identical to the plain DomainPlan of an
	// untouched twin — the fixed-shape constructors are epoch 0 of the
	// general model.
	twin, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 2})
	wantDom, wantN, wantLA := twin.DomainPlan()
	gotDom, gotN, gotLA := cl.DomainPlanAt(0)
	if gotN != wantN || gotLA != wantLA || fmt.Sprint(gotDom) != fmt.Sprint(wantDom) {
		t.Fatalf("epoch-0 plan (%v, %d, %v) != static plan (%v, %d, %v)",
			gotDom, gotN, gotLA, wantDom, wantN, wantLA)
	}
	cl.AddNodes(sec(10), 2)
	// The current plan covers the grown PE space, one domain per node.
	dom, ndom, _ := cl.DomainPlan()
	if ndom != 4 || len(dom) != 8 {
		t.Fatalf("post-expand plan: %d domains over %d PEs, want 4 over 8", ndom, len(dom))
	}
	for pe, d := range dom {
		if want := int32(pe / 2); d != want {
			t.Errorf("PE %d in domain %d, want %d", pe, d, want)
		}
	}
	// The epoch-0 plan is still reconstructible after the expansion.
	oldDom, oldN, _ := cl.DomainPlanAt(0)
	if oldN != wantN || fmt.Sprint(oldDom) != fmt.Sprint(wantDom) {
		t.Errorf("epoch-0 plan changed after expand: (%v, %d)", oldDom, oldN)
	}
}

func TestElasticTransferLivenessAssert(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	cl.RetireNodes(sec(10), 0, 1)
	pes := cl.PEs()
	// Before the retirement transfers flow normally.
	if d := cl.TransferTimeAt(sec(5), pes[0], pes[1], 1024); d <= 0 {
		t.Fatalf("pre-retire transfer time = %v", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("transfer through a retired node did not panic")
		}
	}()
	cl.TransferTimeAt(sec(10), pes[0], pes[1], 1024)
}

func TestStaticClusterSkipsLivenessAssert(t *testing.T) {
	// A cluster whose log never grew must not assert — even for times
	// before zero or absurdly late; the hot path is one bool check.
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	pes := cl.PEs()
	if d := cl.TransferTimeAt(sec(1<<20), pes[0], pes[1], 64); d <= 0 {
		t.Errorf("static transfer time = %v", d)
	}
}

func TestNodeSecondsIntegration(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	cl.AddNodes(sec(10), 1)          // node 2 joins at 10
	cl.RetireNodes(sec(20), 0, 0)    // node 0 leaves at 20
	cl.RetireNodes(sec(30), sec(5), 2) // node 2 notice at 30, leaves 35
	horizon := sec(40)
	// node 0: [0,20) = 20; node 1: [0,40) = 40; node 2: [10,35) = 25.
	if got, want := cl.NodeSeconds(horizon), sec(85); got != want {
		t.Errorf("NodeSeconds = %v, want %v", got, want)
	}
	// Horizon clips live nodes.
	if got, want := cl.NodeSeconds(sec(15)), sec(15)+sec(15)+sec(5); got != want {
		t.Errorf("NodeSeconds(15s) = %v, want %v", got, want)
	}
	// The standalone integral agrees.
	spans := [][2]sim.Time{{0, sec(20)}, {0, -1}, {sec(10), sec(35)}}
	if got, want := NodeSecondsOf(spans, horizon), sec(85); got != want {
		t.Errorf("NodeSecondsOf = %v, want %v", got, want)
	}
	if got, want := cl.NodeSeconds(horizon).Hours(), (85.0 / 3600.0); got != want {
		t.Errorf("NodeHours = %v, want %v", got, want)
	}
	if got, want := FormatNodeHours(sec(3600)), "1.000000"; got != want {
		t.Errorf("FormatNodeHours = %q, want %q", got, want)
	}
}

func TestDegradeLinksRejectsNoOpWindows(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	cl.DegradeLinks(0, sec(10), 1.0)     // factor 1: silent no-op, dropped
	cl.DegradeLinks(sec(10), sec(10), 4) // empty interval, dropped
	cl.DegradeLinks(sec(10), sec(5), 4)  // inverted interval, dropped
	cl.DegradeLinks(0, sec(10), 0.5)     // speed-up: not a degradation, dropped
	if got := len(cl.degrades); got != 0 {
		t.Fatalf("%d no-op windows retained, want 0", got)
	}
	pes := cl.PEs()
	base := cl.TransferTime(pes[0], pes[1], 4096)
	if got := cl.TransferTimeAt(sec(5), pes[0], pes[1], 4096); got != base {
		t.Errorf("dropped windows changed transfer time: %v != %v", got, base)
	}
}

func TestDegradeLinksOverlappingWindowsCompound(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1})
	cl.DegradeLinks(0, sec(20), 2)
	cl.DegradeLinks(sec(10), sec(30), 3)
	pes := cl.PEs()
	base := float64(cl.TransferTime(pes[0], pes[1], 1<<20))
	cases := []struct {
		at   sim.Time
		want float64
	}{
		{sec(5), 2},   // first window only
		{sec(15), 6},  // overlap: factors multiply
		{sec(25), 3},  // second window only
		{sec(30), 1},  // past both ([from, until) is half-open)
	}
	for _, c := range cases {
		got := float64(cl.TransferTimeAt(c.at, pes[0], pes[1], 1<<20))
		want := base * c.want
		if diff := got - want; diff > 1 || diff < -1 { // 1ns slack for float rounding
			t.Errorf("transfer at %v = %v, want %v (factor %v)", c.at, got, want, c.want)
		}
	}
}
