package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
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

// TestCLITraceBytes pins the trace files real runs write, byte for
// byte, in both formats: the 65 536-rank scale run (139 263 events,
// streamed), fig6's and table2's cores=4,ratio=2 point as Chrome JSON,
// and the supervised sweeps' first points. A change to any hook, to the
// recorder or to an exporter that moves a trace byte shows here.
func TestCLITraceBytes(t *testing.T) {
	for _, tc := range []struct{ name, args, md5 string }{
		{"scale", "-experiment scale -vps 65536", "431866a5e89ef93dc0afa6a272d052a3"},
		{"fig6", "-experiment fig6 -trace-format chrome", "586c9f54328e411fdcfb3a8c8db6f55a"},
		{"table2", "-experiment table2 -trace-point cores=4,ratio=2 -trace-format chrome", "5669539754f160c3fa8689e190b39943"},
		{"ftsweep", "-experiment ftsweep", "dd041ef283448732a1f810c5d92ce1ed"},
		{"elastic", "-experiment elastic", "796a52c4cb22f09f63e22b20511c9c80"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, tr := traced(t, "", tc.args)
			sum := md5.Sum(tr)
			if got := hex.EncodeToString(sum[:]); got != tc.md5 {
				t.Errorf("privbench %s traced %d B with md5 %s, want %s", tc.args, len(tr), got, tc.md5)
			}
		})
	}
}
