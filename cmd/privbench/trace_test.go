package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// traced runs privbench with args plus "-trace <dir>/point.jsonl" and
// returns its stdout and the trace's bytes. Every run writes the same
// file name, because stdout names the file.
func traced(t *testing.T, stdin, args string) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "point.jsonl")
	stdout, stderr, code := privbench(t, stdin, args+" -trace "+out)
	if code != 0 {
		t.Fatalf("privbench %s: exit status %d: %s", args, code, stderr)
	}
	tr, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) == 0 {
		t.Fatalf("privbench %s recorded an empty trace", args)
	}
	// A fixed path in the stdout line, so two runs compare equal.
	return string(bytes.ReplaceAll([]byte(stdout), []byte(dir), []byte("DIR"))), tr
}

// The supervised sweeps compile their churn plans and crash schedules
// from seeds before any world runs, so stdout and a selected point's
// trace are byte-identical at any sweep parallelism: elastic under
// churn, and ftsweep, whose points run the same supervisor loop with a
// fault plan and no churn.
func TestSupervisedSweepsAreIdenticalAtAnyParallelism(t *testing.T) {
	for _, tc := range []struct{ experiment, point string }{
		{"elastic", "method=pieglobals,target=fs,churn=spot-busy"},
		{"ftsweep", "method=pieglobals,target=buddy,mtbf=120ms"},
	} {
		t.Run(tc.experiment, func(t *testing.T) {
			args := "-experiment " + tc.experiment + " -trace-point " + tc.point + " -parallel "
			serialOut, serialTrace := traced(t, "", args+"1")
			out, tr := traced(t, "", args+"4")
			if out != serialOut {
				t.Errorf("stdout at -parallel 4 differs from -parallel 1:\n%s\nvs\n%s", out, serialOut)
			}
			if !bytes.Equal(tr, serialTrace) {
				t.Errorf("trace at -parallel 4 (%d B) differs from -parallel 1 (%d B)", len(tr), len(serialTrace))
			}
		})
	}
}

// A figure point and its hand-written document are the same run: the
// trace of a point selected by label equals the trace `-spec` records
// for the document. spot-busy is the elastic point serve-smoke POSTs;
// table2's cores=4,ratio=2 balances with GreedyRefineLB; memory's point
// runs PIEglobals with shared code and copy-on-write read-only data.
func TestFigurePointTracesLikeItsDocument(t *testing.T) {
	for _, tc := range []struct{ name, figure, doc string }{
		{"spot-busy", "-experiment elastic -trace-point method=pieglobals,target=fs,churn=spot-busy",
			`{"spec":{"machine":{"nodes":4,"procs_per_node":1,"pes_per_proc":2},"vps":8,"method":"pieglobals","workload":"checkpointed","checkpoint":{"target":"fs","interval_ns":32000000},"churn":{"seed":20,"eviction_every_ns":80000000,"notice_ns":120000000,"horizon_ns":200000000,"max_events":2}}}`},
		{"table2", "-experiment table2 -trace-point cores=4,ratio=2",
			`{"spec":{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":4},"vps":8,"method":"pieglobals","workload":"adcirc","balancer":"greedyrefine"}}`},
		{"memory", "-experiment memory -trace-point method=pieglobals+sharedcode+cow",
			`{"spec":{"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"vps":1,"method":"pieglobals+sharedcode+cow","workload":"ballast"}}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := traced(t, "", tc.figure)
			_, got := traced(t, tc.doc, "-spec -")
			if !bytes.Equal(got, want) {
				t.Errorf("-spec of the document traced %d B, the figure point %d B, and they differ", len(got), len(want))
			}
		})
	}
}
