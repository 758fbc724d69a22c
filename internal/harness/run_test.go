package harness

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/scenario"
	"provirt/internal/workloads/synth"
)

// rendezvous, when set, runs inside the test-rendezvous constructor, on
// whichever worker builds the point.
var rendezvous atomic.Pointer[func()]

// failedRuns counts the ranks of test-fail that started.
var failedRuns atomic.Int64

func init() {
	scenario.RegisterWorkload(scenario.Workload{
		Name:        "test-rendezvous",
		Description: "the empty program, built after a hook the test sets",
		New: func(scenario.WorkloadParams) (*ampi.Program, func()) {
			if hook := rendezvous.Load(); hook != nil {
				(*hook)()
			}
			return synth.Empty(), nil
		},
	})
	scenario.RegisterWorkload(scenario.Workload{
		Name:        "test-fail",
		Description: "ranks that count their start, then panic",
		New: func(scenario.WorkloadParams) (*ampi.Program, func()) {
			return &ampi.Program{Image: synth.EmptyImage(), Main: func(*ampi.Rank) {
				failedRuns.Add(1)
				panic("test-fail")
			}}, nil
		},
	})
}

// runPoints is n distinct tiny points, point i at i+1 VPs and labelled
// so; the points listed in invalid get zero nodes, which Validate
// refuses.
func runPoints(n int, invalid ...int) []point {
	points := make([]point, n)
	for i := range points {
		points[i] = point{fmt.Sprintf("vps=%d", i+1), scenario.DefaultSpec("empty")}
		points[i].spec.VPs = i + 1
	}
	for _, i := range invalid {
		points[i].spec.Machine.Nodes = 0
	}
	return points
}

// A failed point neither stops the sweep nor moves its rows: every
// other row is filled and the failed rows stay zero.
func TestRunFillsEveryRowDespiteFailedPoints(t *testing.T) {
	const n = 10
	for _, par := range []int{1, 4} {
		rows, _ := run(Opts{Parallelism: par}, runPoints(n, 3, 6))
		for i, row := range rows {
			failed := i == 3 || i == 6
			if got := row.Workload == "empty" && row.VPs == i+1; got == failed {
				t.Fatalf("parallel %d: row %d = %+v (point failed: %v)", par, i, row, failed)
			}
		}
	}
}

// Of two failed points the error is the lower-indexed one, whichever
// finishes first, and it names its point by its label.
func TestRunReturnsLowestIndexedError(t *testing.T) {
	for _, par := range []int{1, 4} {
		_, err := run(Opts{Parallelism: par}, runPoints(10, 3, 6))
		if err == nil || !strings.HasPrefix(err.Error(), "vps=4: ") {
			t.Fatalf("parallel %d: error %v, want point 3's (vps=4)", par, err)
		}
	}
}

// When every point fails, every point still runs: each one's rank
// starts, and no row is filled.
func TestRunAllPointsRunDespiteErrors(t *testing.T) {
	const n = 8
	for _, par := range []int{1, 4} {
		points := make([]point, n)
		for i := range points {
			points[i] = point{fmt.Sprintf("i=%d", i), scenario.DefaultSpec("test-fail")}
			points[i].spec.VPs = 1
		}
		failedRuns.Store(0)
		rows, err := run(Opts{Parallelism: par}, points)
		if err == nil {
			t.Fatalf("parallel %d: no error from a sweep of failing points", par)
		}
		if got := failedRuns.Load(); got != n {
			t.Fatalf("parallel %d: %d of %d failing points ran", par, got, n)
		}
		for i, row := range rows {
			if row != (scenario.Row{}) {
				t.Fatalf("parallel %d: failed point %d filled row %+v", par, i, row)
			}
		}
	}
}

func TestRunZeroPoints(t *testing.T) {
	rows, err := run(Opts{Parallelism: 4}, nil)
	if err != nil || len(rows) != 0 {
		t.Fatalf("run of no points = %v, %v", rows, err)
	}
}

// With four workers and four points whose construction waits until all
// four have begun, the sweep completes only if the points run at once.
func TestRunActuallyParallel(t *testing.T) {
	const n = 4
	var started atomic.Int64
	var stalled atomic.Bool
	all := make(chan struct{})
	hook := func() {
		if started.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			stalled.Store(true)
		}
	}
	rendezvous.Store(&hook)
	defer rendezvous.Store(nil)
	points := runPoints(n)
	for i := range points {
		points[i].spec.Workload, points[i].spec.Method = "test-rendezvous", core.KindNone
	}
	if _, err := run(Opts{Parallelism: n}, points); err != nil {
		t.Fatal(err)
	}
	if stalled.Load() {
		t.Fatalf("the %d points did not run at once", n)
	}
}
