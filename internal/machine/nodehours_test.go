package machine

import (
	"testing"
	"time"

	"provirt/internal/sim"
)

func sec(n int64) sim.Time { return sim.Time(n) * sim.Time(time.Second) }

func TestNodeSecondsIntegration(t *testing.T) {
	// node 0: [0,20) = 20; node 1: [0,40) = 40; node 2: [10,35) = 25.
	spans := [][2]sim.Time{{0, sec(20)}, {0, -1}, {sec(10), sec(35)}}
	if got, want := NodeSecondsOf(spans, sec(40)), sec(85); got != want {
		t.Errorf("NodeSecondsOf = %v, want %v", got, want)
	}
	// The horizon clips live nodes and nodes retired after it.
	if got, want := NodeSecondsOf(spans, sec(15)), sec(15)+sec(15)+sec(5); got != want {
		t.Errorf("NodeSecondsOf(15s) = %v, want %v", got, want)
	}
	// A node that joins after the horizon costs nothing.
	if got := NodeSecondsOf([][2]sim.Time{{sec(50), -1}}, sec(40)); got != 0 {
		t.Errorf("late joiner = %v, want 0", got)
	}
	if got, want := FormatNodeHours(sec(3600)), "1.000000"; got != want {
		t.Errorf("FormatNodeHours = %q, want %q", got, want)
	}
}
