package ampi_test

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/mem"
	"provirt/internal/obs"
	"provirt/internal/scenario"
)

// TestMatchQueuesStayShallow pins the premise the linear match queues
// rest on: every registered workload, at the most ranks a world holds
// (mem.MaxRanks on 2x2x4), keeps both queues at or below 16 entries —
// the depth at which the queues used to switch to a hash index.
// Measured maxima: an unexpected-queue high-water of 10 (amr,
// checkpointed, empty, hello) or 9 (adcirc, jacobi) — a binomial root's
// fan-in — and every probe at depth ≤ 16, all but two per workload at
// ≤ 8. A workload that fails this is still matched correctly, only by a
// longer scan: measure what the scan costs it before bringing an index
// back.
func TestMatchQueuesStayShallow(t *testing.T) {
	const bound = 16
	for _, wl := range scenario.Workloads() {
		if wl.Name == "ping" || wl.Name == "ballast" {
			// Two threads yielding to each other: it sends no message, and
			// 1 536 ranks of it are seconds of context switches. Ballast
			// sends none either; its one collective is a migration.
			continue
		}
		reg := obs.NewRegistry()
		ampi.EnableObs(reg)
		sp := scenario.Spec{
			Machine:  machine.Config{Nodes: 2, ProcsPerNode: 2, PEsPerProc: 4},
			VPs:      mem.MaxRanks,
			Method:   core.KindTLSglobals,
			Workload: wl.Name,
		}
		_, _, err := sp.Execute()
		ampi.EnableObs(nil)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		var text bytes.Buffer
		if err := reg.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		got := map[string]uint64{}
		sc := bufio.NewScanner(&text)
		for sc.Scan() {
			name, value, _ := strings.Cut(sc.Text(), " ")
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("%s: metric line %q: %v", wl.Name, sc.Text(), err)
			}
			got[name] = n
		}
		if hw := got["ampi_unexpected_depth_high_water"]; hw > bound {
			t.Errorf("%s: unexpected-queue high-water %d > %d", wl.Name, hw, bound)
		}
		within, all := got[`ampi_match_probe_depth_bucket{le="16"}`], got["ampi_match_probe_depth_count"]
		if all == 0 {
			t.Errorf("%s: no match probe observed", wl.Name)
		}
		if within != all {
			t.Errorf("%s: %d of %d match probes scanned more than %d entries", wl.Name, all-within, all, bound)
		}
	}
}
