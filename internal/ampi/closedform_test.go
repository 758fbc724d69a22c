package ampi

import (
	"fmt"
	"testing"
	"time"

	"provirt/internal/core"
	"provirt/internal/elf"
	"provirt/internal/lb"
	"provirt/internal/loader"
	"provirt/internal/machine"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// Closed forms of the message path's and migration's cost model,
// checked against the world that runs it. The goldens pin whatever the model prints; these
// pin what it is meant to compute.

// closedFormWorld runs main on every rank of a TLSglobals world
// configured by cfg.
func closedFormWorld(t *testing.T, cfg Config, main func(r *Rank)) *World {
	t.Helper()
	img := elf.NewBuilder("closedform").Global("g", 0).Func("main", 1024).MustBuild()
	cfg.Privatize = core.KindTLSglobals
	w, err := NewWorld(cfg, &Program{Image: img, Main: main})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

// switchCost is what a PE's scheduler charges to switch to a rank.
func switchCost(w *World, r *Rank) sim.Time {
	return w.Cluster.Cost.ULTSwitchBase + w.Cfg.Privatize.SwitchExtra(r.ctx)
}

// TestPingPongClosedForm: a round trip between two ranks takes
// 2 × (send overhead + receive overhead + transfer + one context
// switch), on one PE and across each network tier. The switch is the
// one that resumes the receiver when its message lands: on one PE the
// other rank has parked by then, and on two PEs the receiver's PE is
// idle.
func TestPingPongClosedForm(t *testing.T) {
	const bytes = 4096
	for _, mc := range []machine.Config{
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 1}, // both ranks on one PE
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2}, // shared memory
		{Nodes: 1, ProcsPerNode: 2, PEsPerProc: 1}, // intra-node
		{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1}, // inter-node
	} {
		var rtt sim.Time
		w := closedFormWorld(t, Config{Machine: mc, VPs: 2}, func(r *Rank) {
			if r.Rank() == 0 {
				start := r.Wtime()
				r.Send(1, 0, []float64{1}, bytes)
				r.Wait(r.Irecv(1, 0, make([]float64, 1)))
				rtt = r.Wtime() - start
				return
			}
			r.Wait(r.Irecv(0, 0, make([]float64, 1)))
			r.Send(0, 0, []float64{2}, bytes)
		})
		r0, r1 := w.Ranks[0], w.Ranks[1]
		c := w.Cluster.Cost
		hop := c.MsgSendOverhead + c.MsgRecvOverhead + w.Cluster.TransferTime(r0.PE(), r1.PE(), bytes)
		if want := 2 * (hop + switchCost(w, r1)); rtt != want {
			t.Errorf("%dx%dx%d: round trip %v, closed form %v", mc.Nodes, mc.ProcsPerNode, mc.PEsPerProc, rtt, want)
		}
	}
}

// allreduceClosedForm walks the binomial tree of an 8-byte Allreduce
// over one rank per PE, every rank entering at entry[v], and returns
// when each rank's call returns. A rank pays the send overhead per
// message sent and the receive overhead per message received; a
// receive whose message arrived no later than the start of the rank's
// current scheduler pass completes at once (a delivery due at the
// pass's own instant was queued first), otherwise the rank parks and
// resumes at max(its clock, arrival) plus one context switch, and that
// resumption begins a new pass.
func allreduceClosedForm(w *World, entry []sim.Time) []sim.Time {
	c, p := w.Cluster.Cost, len(w.Ranks)
	clock := append([]sim.Time(nil), entry...)
	pass := make([]sim.Time, p)
	for v, r := range w.Ranks {
		pass[v] = entry[v] - switchCost(w, r)
	}
	recv := func(v int, arrival sim.Time) {
		if arrival > pass[v] {
			pass[v] = max(clock[v], arrival)
			clock[v] = pass[v] + switchCost(w, w.Ranks[v])
		}
		clock[v] += c.MsgRecvOverhead
	}
	send := func(from, to int) sim.Time {
		clock[from] += c.MsgSendOverhead
		return clock[from] + w.Cluster.TransferTime(w.Ranks[from].PE(), w.Ranks[to].PE(), 8)
	}
	// Reduce: children (v+m) finish before their parent, largest
	// subtree received first.
	up := make([]sim.Time, p)
	for v := p - 1; v >= 0; v-- {
		parent, limit := binomialNode(v, p)
		top := 0
		for m := 1; m < limit && v+m < p; m <<= 1 {
			top = m
		}
		for m := top; m > 0; m >>= 1 {
			recv(v, up[v+m])
		}
		if parent >= 0 {
			up[v] = send(v, parent)
		}
	}
	// Broadcast: parents before children, smallest subtree sent first.
	down := make([]sim.Time, p)
	for v := 0; v < p; v++ {
		parent, limit := binomialNode(v, p)
		if parent >= 0 {
			recv(v, down[v])
		}
		for m := 1; m < limit && v+m < p; m <<= 1 {
			down[v+m] = send(v, v+m)
		}
	}
	return clock
}

// TestAllreduceClosedForm: an Allreduce over P ranks, one per PE, ends
// on every rank when the binomial critical path says it does.
func TestAllreduceClosedForm(t *testing.T) {
	for _, mc := range []machine.Config{
		{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1},
		{Nodes: 1, ProcsPerNode: 3, PEsPerProc: 1},
		{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 2},
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 13},
	} {
		p := mc.Nodes * mc.ProcsPerNode * mc.PEsPerProc
		t.Run(fmt.Sprintf("P=%d", p), func(t *testing.T) {
			entry, exit := make([]sim.Time, p), make([]sim.Time, p)
			w := closedFormWorld(t, Config{Machine: mc, VPs: p}, func(r *Rank) {
				entry[r.Rank()] = r.Wtime()
				r.Allreduce([]float64{float64(r.Rank())}, OpSum)
				exit[r.Rank()] = r.Wtime()
			})
			want := allreduceClosedForm(w, entry)
			for v := range exit {
				if exit[v] != want[v] {
					t.Errorf("rank %d leaves Allreduce at %v, closed form %v", v, exit[v], want[v])
				}
			}
		})
	}
}

// TestFirstMigrationClosedForm: a rank's first migration lasts
// 2 × CopyTime(b) + TransferTime(src, dst, b) + MigrationOverhead, where
// b is its payload. With no earlier snapshot to be incremental against,
// the whole payload is packed on the source, flown, and unpacked on the
// destination.
func TestFirstMigrationClosedForm(t *testing.T) {
	for _, mc := range []machine.Config{
		{Nodes: 1, ProcsPerNode: 1, PEsPerProc: 2}, // shared memory
		{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 1}, // inter-node
	} {
		rec := trace.NewRecorder(trace.KindMigration)
		w := closedFormWorld(t, Config{Machine: mc, VPs: 1, Balancer: lb.RotateLB{}, Tracer: rec},
			func(r *Rank) { r.Migrate() })
		evs := rec.Events()
		if len(evs) != 1 {
			t.Fatalf("%dx%dx%d: %d migration spans, want 1", mc.Nodes, mc.ProcsPerNode, mc.PEsPerProc, len(evs))
		}
		ev, c := evs[0], w.Cluster.Cost
		b := ev.Bytes
		want := 2*c.CopyTime(b) + w.Cluster.TransferTime(w.Cluster.PE(int(ev.PE)), w.Cluster.PE(int(ev.Peer)), b) +
			c.MigrationOverhead
		if ev.Dur != want {
			t.Errorf("%dx%dx%d: migration of %d bytes took %v, closed form %v",
				mc.Nodes, mc.ProcsPerNode, mc.PEsPerProc, b, ev.Dur, want)
		}
	}
}

// TestFSglobalsStartupClosedForm: FSglobals startup on N nodes, one
// process each, eight ranks per process (Fig. 5's scaling table).
// Each rank's copy of the binary is written to the shared filesystem
// and read back, and every transfer costs fs = FSOpenLatency +
// bytes/FSBandwidth on the one filesystem clock. Around them a process
// pays first (exec load, runtime init, the program's own dlopen) once
// and local (linking the copy read back, populating its shim) per copy.
//
// The model serializes whole processes on that clock: process p's
// first write waits for process p-1's last read, so a process's local
// work holds the filesystem, and every node after the first adds
// 8 × 2 × fs + 7 × local. Processes that ran concurrently would overlap
// that local work with the other processes' transfers, and a node would
// add its sixteen transfers alone. The 7 × local per node is a finding
// (DESIGN §5, ROADMAP item 11), pinned here so it cannot move
// unnoticed.
func TestFSglobalsStartupClosedForm(t *testing.T) {
	const perProc = 8
	img := elf.NewBuilder("fsglobals").Global("g", 0).Func("main", 1024).
		CodeBulk(3 << 20).DataBulk(256 << 10).MustBuild()
	for _, nodes := range []int{1, 2, 4, 8} {
		w, err := NewWorld(Config{
			Machine:   machine.Config{Nodes: nodes, ProcsPerNode: 1, PEsPerProc: 1},
			VPs:       nodes * perProc,
			Privatize: core.KindFSglobals,
		}, &Program{Image: img, Main: func(*Rank) {}})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		c, bytes := w.Cluster.Cost, img.TotalSegmentBytes()
		fs := c.FSOpenLatency + sim.Time(float64(bytes)/c.FSBandwidth*float64(time.Second))
		load := c.DlopenBase + sim.Time(img.Relocations)*c.RelocationCost + c.PageMapTime(bytes)
		first := c.ExecLoadBase + c.RuntimeInitBase + load
		local := load + loader.ShimFunctionCount*c.GlobalAccessDirect
		n := sim.Time(nodes)
		want := first + perProc*(2*fs+local) + (n-1)*(perProc*2*fs+(perProc-1)*local)
		if w.SetupDone != want {
			t.Errorf("%d nodes: startup %v, closed form %v (fs %v, local %v)", nodes, w.SetupDone, want, fs, local)
		}
		if grew := w.SetupDone - (first + perProc*(2*fs+local)) - (n-1)*perProc*2*fs; grew != 7*(n-1)*local {
			t.Errorf("%d nodes: startup grew %v past the transfers of the added nodes, want 7 × (N-1) × local = %v",
				nodes, grew, 7*(n-1)*local)
		}
	}
}
