package machine

import (
	"fmt"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{},
		{Nodes: 1},
		{Nodes: 1, ProcsPerNode: 1},
		{Nodes: 0, ProcsPerNode: 1, PEsPerProc: 1},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	good := Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !good.SMPMode() {
		t.Error("4 PEs/proc should be SMP mode")
	}
	if (Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1}).SMPMode() {
		t.Error("1 PE/proc is not SMP mode")
	}
}

func TestClusterTopology(t *testing.T) {
	cl, err := New(Config{Nodes: 2, ProcsPerNode: 3, PEsPerProc: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Nodes) != 2 || len(cl.Processes()) != 6 || len(cl.PEs()) != 24 {
		t.Fatalf("topology %d/%d/%d", len(cl.Nodes), len(cl.Processes()), len(cl.PEs()))
	}
	// Global ids are dense and ordered.
	for i, pe := range cl.PEs() {
		if pe.ID != i {
			t.Fatalf("PE %d has id %d", i, pe.ID)
		}
	}
	for i, p := range cl.Processes() {
		if p.ID != i {
			t.Fatalf("process %d has id %d", i, p.ID)
		}
		if p.AS == nil {
			t.Fatal("process without address space")
		}
	}
	// Each process's PEs point back at it.
	for _, p := range cl.Processes() {
		for _, pe := range p.PEs {
			if pe.Proc != p {
				t.Fatal("PE/process linkage broken")
			}
		}
	}
}

func TestTransferTimeTiers(t *testing.T) {
	cl, _ := New(Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2})
	pes := cl.PEs()
	const n = 1 << 20
	sameProc := cl.TransferTime(pes[0], pes[1], n)
	sameNode := cl.TransferTime(pes[0], pes[2], n)
	crossNode := cl.TransferTime(pes[0], pes[4], n)
	if !(sameProc < sameNode) {
		t.Errorf("shared-memory transfer %v not faster than intra-node %v", sameProc, sameNode)
	}
	if crossNode < sameNode/10 {
		t.Errorf("implausible cross-node %v vs intra-node %v", crossNode, sameNode)
	}
	// Latency dominates small messages; bandwidth dominates large.
	small := cl.TransferTime(pes[0], pes[4], 8)
	large := cl.TransferTime(pes[0], pes[4], 1<<30)
	if small >= large {
		t.Error("transfer time not increasing in size")
	}
	if small < cl.Cost.InterNodeLatency {
		t.Error("small transfer beat the wire latency")
	}
}

func TestProcessMalloc(t *testing.T) {
	cl, _ := New(Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	p := cl.Processes()[0]
	a := p.Malloc(100)
	b := p.Malloc(100)
	if a == b || b < a+100 {
		t.Fatalf("mallocs overlap: %#x %#x", a, b)
	}
	// A huge allocation spills into a fresh arena.
	c := p.Malloc(64 << 20)
	if c == 0 {
		t.Fatal("large malloc failed")
	}
	if p.AS.Find(c) == nil {
		t.Fatal("malloc result not inside a mapped region")
	}
}

func TestSharedFSSerialization(t *testing.T) {
	cl, _ := New(Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1})
	fs := cl.FS
	d1 := fs.WriteFile(0, "/a", 1<<20)
	d2 := fs.WriteFile(0, "/b", 1<<20)
	if d2 <= d1 {
		t.Error("concurrent writes did not serialize on the FS")
	}
	done, n, err := fs.ReadFile(d2, "/a")
	if err != nil || n != 1<<20 {
		t.Fatalf("read: %v n=%d", err, n)
	}
	if done <= d2 {
		t.Error("read charged no time")
	}
	if !fs.Exists("/a") || fs.Exists("/c") {
		t.Error("Exists wrong")
	}
	if _, _, err := fs.ReadFile(0, "/c"); err == nil {
		t.Error("read of a missing file succeeded")
	}
}

func TestCostModelHelpers(t *testing.T) {
	c := Default()
	if c.CopyTime(0) != 0 {
		t.Error("zero-byte copy costs time")
	}
	oneGig := c.CopyTime(1 << 30)
	if oneGig < 10*time.Millisecond || oneGig > 1*time.Second {
		t.Errorf("1 GiB copy = %v, implausible", oneGig)
	}
	if c.PageMapTime(1) != c.PageMapCost {
		t.Error("sub-page mapping should cost one page")
	}
	if c.PageMapTime(8192) != 2*c.PageMapCost {
		t.Error("two-page mapping wrong")
	}
}

// TestDomainPlan pins the lookahead domains the flat world runs on: the
// coarsest machine tier with more than one unit.
func TestDomainPlan(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Nodes: 4, ProcsPerNode: 1, PEsPerProc: 2}, "[0 0 1 1 2 2 3 3]"},
		{Config{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 2}, "[0 0 1 1]"},
		{Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 3}, "[0 1 2]"},
	} {
		cl, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(cl.DomainPlan()); got != c.want {
			t.Errorf("%+v: plan %s, want %s", c.cfg, got, c.want)
		}
	}
	// Past maxDomains units, contiguous units share a domain.
	cl, err := New(Config{Nodes: 300, ProcsPerNode: 1, PEsPerProc: 1})
	if err != nil {
		t.Fatal(err)
	}
	dom := cl.DomainPlan()
	if len(dom) != 300 || dom[0] != 0 || dom[1] != 0 || dom[2] != 1 || dom[299] != maxDomains-1 {
		t.Errorf("300 nodes: plan %v, want 256 domains, contiguous", dom)
	}
}
