package ampi_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/workloads/jacobi"
	"provirt/internal/workloads/synth"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// runSwitchWorld builds and runs the 64-rank Jacobi world of the
// switch_msg benchmark workload under TLSglobals: the default 24^3 grid
// in 6^3 blocks on two nodes of four PEs.
func runSwitchWorld(tb testing.TB) {
	tb.Helper()
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 2, ProcsPerNode: 1, PEsPerProc: 4},
		VPs:       64,
		Privatize: core.KindTLSglobals,
	}, jacobi.New(jacobi.DefaultConfig(), nil))
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.Run(); err != nil {
		tb.Fatal(err)
	}
}

// warmWorldBytesPerRankBudget is what a switch_msg world allocates per
// rank after a first one, measured at 1 324 B (go1.24.0, linux/amd64),
// plus 10 %. It was 4 314 B while every world started its message pools
// and event queue empty and refilled them from the heap; a return to
// that exceeds the budget. What is left is the world's own: rank and
// thread slabs, coroutines, TLS granules and contexts, and the per-rank
// match queues.
const warmWorldBytesPerRankBudget = 1_324 * 11 / 10

func TestWarmWorldAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	// A collection empties sync.Pool; with none, a world finds everything
	// the one before it gave back.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runSwitchWorld(t)
	// The smallest of three worlds: a goroutine that changed processors
	// between two worlds misses the pool's per-processor cache once.
	perRank := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runSwitchWorld(t)
		runtime.ReadMemStats(&after)
		perRank = min(perRank, (after.TotalAlloc-before.TotalAlloc)/64)
	}
	t.Logf("%d B per rank", perRank)
	if perRank > warmWorldBytesPerRankBudget {
		t.Errorf("a warm 64-rank Jacobi world allocates %d B per rank, budget %d", perRank, warmWorldBytesPerRankBudget)
	}
}

// scratchLengths are the payload lengths the recycled-scratch worlds
// send: every size class boundary near Jacobi's 1-cell reductions and
// 36-cell halos, and one large payload.
var scratchLengths = []int{1, 36, 37, 64, 65, 4096, 2, 0}

// patternValue is the value element i of the message rank src sends in
// step s carries under pattern p. Every value is an integer well below
// 2^53, so sums of them are exact in any order.
func patternValue(p, src, s, i int) float64 {
	return float64(p*1_000_000 + src*10_000 + s*100 + i%97)
}

// scratchWorld runs vps ranks on pes PEs. In step s, rank r sends
// scratchLengths[s] values of pattern p to rank r+s+1 and receives the
// same from rank r-s-1 into a buffer five values longer, filled with
// NaN; then every rank allreduces its message. Each rank checks every
// received and reduced value against patternValue, and the run's digest
// covers every value's bits and every rank's final clock.
func scratchWorld(vps, pes, p int) (uint64, error) {
	var mu sync.Mutex
	var bad []string
	digests := make([]uint64, vps)
	prog := &ampi.Program{
		Image: synth.EmptyImage(),
		Main: func(r *ampi.Rank) {
			me, size := r.Rank(), r.Size()
			h := fnv.New64a()
			word := func(x uint64) { fmt.Fprintf(h, "%x ", x) }
			check := func(what string, got []float64, want func(i int) float64, n int) {
				if len(got) != n {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("rank %d %s: %d values, want %d", me, what, len(got), n))
					mu.Unlock()
					return
				}
				for i, v := range got {
					word(math.Float64bits(v))
					if v != want(i) {
						mu.Lock()
						bad = append(bad, fmt.Sprintf("rank %d %s[%d] = %v, want %v", me, what, i, v, want(i)))
						mu.Unlock()
						return
					}
				}
			}
			for s, n := range scratchLengths {
				to, from := (me+s+1)%size, (me+size-(s+1)%size)%size
				out := make([]float64, n)
				for i := range out {
					out[i] = patternValue(p, me, s, i)
				}
				in := make([]float64, n+5)
				for i := range in {
					in[i] = math.NaN()
				}
				q := r.Irecv(from, s, in)
				r.Send(to, s, out, 0)
				got := r.Wait(q)
				check(fmt.Sprintf("step %d message", s), got, func(i int) float64 { return patternValue(p, from, s, i) }, n)
				sum := r.Allreduce(out, ampi.OpSum)
				check(fmt.Sprintf("step %d allreduce", s), sum, func(i int) float64 {
					var t float64
					for src := 0; src < size; src++ {
						t += patternValue(p, src, s, i)
					}
					return t
				}, n)
			}
			word(uint64(r.Wtime()))
			digests[me] = h.Sum64()
		},
	}
	w, err := ampi.NewWorld(ampi.Config{
		Machine:   machine.Config{Nodes: 1, ProcsPerNode: 1, PEsPerProc: pes},
		VPs:       vps,
		Privatize: core.KindNone,
	}, prog)
	if err != nil {
		return 0, err
	}
	if err := w.Run(); err != nil {
		return 0, err
	}
	if len(bad) > 0 {
		return 0, fmt.Errorf("%d wrong values, first: %s", len(bad), bad[0])
	}
	h := fnv.New64a()
	for _, d := range digests {
		fmt.Fprintf(h, "%x ", d)
	}
	fmt.Fprintf(h, "%d", w.Time())
	return h.Sum64(), nil
}

// TestRecycledScratchChangesNoResult runs worlds on the message scratch
// and event queues earlier worlds gave back: one world, worlds of other
// sizes, the first again, and then two at once with distinct payload
// patterns. Every value each rank receives or reduces is the one its
// sender sent, and the first world's digest of them and of its clocks
// never moves.
func TestRecycledScratchChangesNoResult(t *testing.T) {
	run := func(vps, pes, p int) uint64 {
		t.Helper()
		d, err := scratchWorld(vps, pes, p)
		if err != nil {
			t.Fatalf("%d ranks on %d PEs, pattern %d: %v", vps, pes, p, err)
		}
		return d
	}
	first := run(6, 2, 1)
	run(3, 1, 7)
	run(17, 4, 3)
	run(40, 2, 5)
	if again := run(6, 2, 1); again != first {
		t.Errorf("the first world again: digest %x, first run %x", again, first)
	}

	var wg sync.WaitGroup
	var digests [2]uint64
	var errs [2]error
	for i := range digests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			digests[i], errs[i] = scratchWorld(6, 2, 1+i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent world %d: %v", i, err)
		}
	}
	if digests[0] != first {
		t.Errorf("concurrent world 0: digest %x, first run %x", digests[0], first)
	}
}
