package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"provirt/internal/ampi"
	"provirt/internal/harness"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current tree")

// TestMain lets a test run main in a child copy of the test binary:
// PRIVBENCH_TEST_ARGS holds the child's arguments.
func TestMain(m *testing.M) {
	if args := os.Getenv("PRIVBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"privbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// privbench runs main with args (split on spaces) and stdin in a child
// process and returns its stdout, its stderr and its exit status.
func privbench(t *testing.T, stdin, args string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PRIVBENCH_TEST_ARGS="+args)
	cmd.Stdin = strings.NewReader(stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("privbench %s: %v", args, err)
	}
	return stdout.String(), stderr.String(), cmd.ProcessState.ExitCode()
}

// A trace selection no sweep point matches must exit 1 after printing
// the figure, list the labels the experiment offered, and remove the
// file it opened to stream into.
func TestUnmatchedTraceLeavesNoFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "n.jsonl")
	stdout, stderr, code := privbench(t, "", "-experiment fig5 -trace-point method=swapglobals,nodes=1 -trace "+out)
	if code != 1 {
		t.Fatalf("privbench with an unmatched trace: exit status %d, want 1", code)
	}
	if !strings.Contains(stderr, "matched no run") || !strings.Contains(stderr, "\n  method=pieglobals,nodes=1\n") {
		t.Errorf("stderr does not say the selection matched no run and list the labels: %q", stderr)
	}
	if !strings.Contains(stdout, "Figure 5") {
		t.Errorf("stdout does not carry the figure: %q", stdout)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("an unmatched trace left its file behind: %v", err)
	}
}

// Each flag value that has no meaning, each flag its mode does not
// read, and a flag that is gone must exit 2 naming the flag before
// anything runs, not fall back to a default or be ignored.
func TestBadFlagValuesAreRefused(t *testing.T) {
	const doc = "../../examples/quickstart.json"
	for _, tc := range []struct{ flag, args string }{
		{"-vps", "-experiment scale -vps -7"},
		{"-sim-workers", "-experiment scale -sim-workers 2"},
		{"-serve-workers", "-experiment fig5 -serve-workers -1"},
		{"-cache-entries", "-experiment fig5 -cache-entries -1"},
		{"-trace-point", "-experiment fig5 -trace-point method=none,nodes=1"},
		{"-trace-format", "-experiment fig5 -trace-format chrome"},
		{"-trace-point", "-spec - -profile-ranks -trace-point method=none"},
		{"-vps", "-spec " + doc + " -vps 9"},
		{"-parallel", "-spec " + doc + " -parallel 4"},
		{"-store", "-experiment tables -store x"},
		{"-vps", "-experiment fig6 -vps 64"},
		{"-parallel", "-serve 127.0.0.1:0 -parallel 2"},
		{"-parallel", "-version -parallel 2"},
		{"-parallel", "-experiment tables -parallel 3"},
		{"-parallel", "-experiment icache -parallel 3"},
		{"-parallel", "-experiment scale -vps 64 -parallel 2"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			stdout, stderr, code := privbench(t, "", tc.args)
			if code != 2 {
				t.Fatalf("privbench %s: exit status %d, want 2", tc.args, code)
			}
			if !strings.Contains(stderr, tc.flag) {
				t.Errorf("stderr does not name %s: %q", tc.flag, stderr)
			}
			if stdout != "" {
				t.Errorf("a refused run printed %q", stdout)
			}
		})
	}
}

// The sweep flags are read by each experiment that runs a sweep, and
// so by -experiment=all, which runs them all.
func TestSweepFlagsAreReadBySweeps(t *testing.T) {
	out := filepath.Join(t.TempDir(), "f5.jsonl")
	for _, args := range []string{
		"-experiment all -parallel 2",
		"-experiment fig5 -parallel 2 -trace " + out,
	} {
		if _, stderr, code := privbench(t, "", args); code != 0 {
			t.Errorf("privbench %s: exit status %d: %s", args, code, stderr)
		}
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("fig5 wrote no trace: %v", err)
	}
}

// hasLine reports whether out holds want as a whole line.
func hasLine(out, want string) bool {
	for _, line := range strings.Split(out, "\n") {
		if line == want {
			return true
		}
	}
	return false
}

// A JSONL trace streams to its file unless -profile-ranks needs the
// events afterwards; then the retained slice goes through WriteJSONL.
// Both writers must give the same bytes on a real run: the scale
// experiment at 65 536 ranks, which records 139 263 events.
func TestScaleTraceStreamedEqualsRetained(t *testing.T) {
	dir := t.TempDir()
	streamed, retained := filepath.Join(dir, "s.jsonl"), filepath.Join(dir, "r.jsonl")
	var stdout string
	for _, args := range []string{
		"-experiment scale -vps 65536 -trace " + streamed,
		"-experiment scale -vps 65536 -trace " + retained + " -profile-ranks",
	} {
		out, stderr, code := privbench(t, "", args)
		if code != 0 {
			t.Fatalf("privbench %s: exit status %d: %s", args, code, stderr)
		}
		if stdout == "" {
			stdout = out
		}
	}
	if want := "trace: 139263 events -> " + streamed + " (jsonl)"; !hasLine(stdout, want) {
		t.Errorf("the streamed run does not print %q:\n%s", want, stdout)
	}
	s, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := os.ReadFile(retained)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s, r) {
		t.Errorf("streamed trace (%d B) and retained trace (%d B) differ", len(s), len(r))
	}
}

// The flat world hands the engine only what crosses a lookahead domain:
// at 65 536 ranks, 14 tree edges and 8 192 migrations, 8 206 events a
// host cannot change.
func TestScaleRunDispatchesCrossDomainEdgesAndMigrations(t *testing.T) {
	stdout, stderr, code := privbench(t, "", "-experiment scale -vps 65536 -metrics")
	if code != 0 {
		t.Fatalf("privbench -experiment scale -metrics: exit status %d: %s", code, stderr)
	}
	if want := "sim_events_dispatched_total 8206"; !hasLine(stdout, want) {
		t.Errorf("-metrics does not print %q:\n%s", want, stdout)
	}
}

// Every flag privbench defines names the mode that reads it, in modes
// or as an experiment's registry flag, and every name there is a flag.
func TestEveryFlagHasAMode(t *testing.T) {
	read := map[string]bool{}
	for _, names := range modes {
		for _, name := range names {
			read[name] = true
		}
	}
	for _, e := range harness.Experiments() {
		for _, name := range e.Flags {
			read[name] = true
		}
	}
	for name := range read {
		if flag.Lookup(name) == nil {
			t.Errorf("-%s is read by a mode but defined by no flag", name)
		}
	}
	flag.VisitAll(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "test.") || f.Name == "update" {
			return // the test binary's own
		}
		if !read[f.Name] {
			t.Errorf("-%s is read by no mode", f.Name)
		}
	})
}

// TestExampleDocuments runs every examples/*.json document through
// `privbench -spec` and compares stdout with testdata/<name>.golden.
// Every byte is virtual time or a modeled count. A change that means to
// move one regenerates with
//
//	go test ./cmd/privbench -run TestExampleDocuments -update
func TestExampleDocuments(t *testing.T) {
	docs, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no example documents: %v", err)
	}
	for _, doc := range docs {
		name := strings.TrimSuffix(filepath.Base(doc), ".json")
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := privbench(t, "", "-spec "+doc)
			if code != 0 {
				t.Fatalf("privbench -spec %s: exit status %d: %s", doc, code, stderr)
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if stdout != string(want) {
				t.Errorf("privbench -spec %s differs from %s:\n%s", doc, golden, stdout)
			}
		})
	}
}

// goldenRows decodes the row lines of testdata/<name>.golden, which
// TestExampleDocuments pins to what `privbench -spec` prints.
func goldenRows(t *testing.T, name string) []scenario.Row {
	t.Helper()
	out, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []scenario.Row
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var row scenario.Row
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("%s.golden: %v", name, err)
		}
		rows = append(rows, row)
	}
	return rows
}

// The two story documents keep telling their stories, whatever -update
// writes. cloudrestart: a noticed eviction drains the job through a
// checkpoint and it restarts on the surviving node with no rework (the
// checkpointed workload's ranks panic on a wrong final sum). migration:
// PIEglobals moves the rank's code and data segments with it, so its
// one migration carries more bytes than TLSglobals' (Fig. 8).
func TestExampleStories(t *testing.T) {
	rows := goldenRows(t, "cloudrestart")
	if len(rows) != 1 {
		t.Fatalf("cloudrestart has %d rows, want 1", len(rows))
	}
	if r := rows[0]; r.Epochs != 1 || r.Drained != 1 || r.Attempts != 2 || r.ReworkNoticedNs != 0 || r.ReworkForcedNs != 0 {
		t.Errorf("cloudrestart: epochs %d, drained %d, attempts %d, rework %d noticed + %d forced; want 1, 1, 2 and no rework",
			r.Epochs, r.Drained, r.Attempts, r.ReworkNoticedNs, r.ReworkForcedNs)
	}

	rows = goldenRows(t, "migration")
	if len(rows) != 2 || rows[0].Method != "tlsglobals" || rows[1].Method != "pieglobals" {
		t.Fatalf("migration rows %+v, want a tlsglobals and a pieglobals point", rows)
	}
	for _, r := range rows {
		if r.Migrations != 1 {
			t.Errorf("migration: %s migrated %d times, want 1", r.Method, r.Migrations)
		}
	}
	if tls, pie := rows[0].MigratedBytes, rows[1].MigratedBytes; pie <= tls {
		t.Errorf("migration: pieglobals moved %d bytes, tlsglobals %d; want pieglobals to move more", pie, tls)
	}
}

// hello is a one-point document for the -spec tests.
func hello(method string) string {
	return `{"workload":"hello","vps":2,"method":"` + method +
		`","machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`
}

// A two-point body prints, point by point and in order, the workload's
// report and then the row.
func TestSpecRunsEveryPointInOrder(t *testing.T) {
	body := `{"points":[` + hello("none") + "," + hello("pieglobals") + "]}"
	stdout, stderr, code := privbench(t, body, "-spec -")
	if code != 0 {
		t.Fatalf("privbench -spec: exit status %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n")
	want := []string{"rank: 1", "rank: 1", `"method":"none"`, "rank: 0", "rank: 1", `"method":"pieglobals"`}
	if len(lines) != len(want) {
		t.Fatalf("stdout has %d lines, want %d:\n%s", len(lines), len(want), stdout)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Errorf("line %d is %q, want it to carry %s", i, lines[i], w)
		}
	}
}

// A trace selects one point: with two, -spec exits 2 before anything
// runs, and leaves no trace file.
func TestSpecTraceNeedsOnePoint(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	body := `{"points":[` + hello("none") + "," + hello("pieglobals") + "]}"
	stdout, stderr, code := privbench(t, body, "-spec - -trace "+out)
	if code != 2 {
		t.Fatalf("privbench -spec -trace of two points: exit status %d, want 2", code)
	}
	if !strings.Contains(stderr, "one-point") || stdout != "" {
		t.Errorf("stdout %q, stderr %q", stdout, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a refused trace left its file behind: %v", err)
	}
}

// -spec takes the POST /v1/runs body through the server's decoder: a
// bare Spec (by the unknown-field rule), a body with both "spec" and
// "points", a repeated key, data after the body, a sweep past
// scenario.MaxPoints and a point with an unknown key are refused with
// the error the server answers them with, naming the point when the
// server does.
func TestSpecRefusesWhatTheServerRefuses(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(store, "test", 1).Handler(nil))
	defer ts.Close()
	for name, tc := range map[string]struct{ body, why, at string }{
		"bare spec":         {hello("none"), `unknown field "workload"`, ""},
		"spec and points":   {`{"spec":` + hello("none") + `,"points":[` + hello("none") + "]}", "mutually exclusive", ""},
		"repeated key":      {`{"points":[` + hello("none") + `],"points":[` + hello("pieglobals") + "]}", "appears twice", ""},
		"trailing data":     {`{"spec":` + hello("none") + `}{"spec":` + hello("pieglobals") + "}", "data after", ""},
		"too many points":   {`{"points":[` + strings.Repeat(hello("none")+",", scenario.MaxPoints) + hello("none") + "]}", strconv.Itoa(scenario.MaxPoints), ""},
		"unknown point key": {`{"points":[` + hello("none") + `,{"bogus":1}]}`, `unknown field "bogus"`, "point 1: "},
	} {
		t.Run(name, func(t *testing.T) {
			body := tc.body
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var refused struct {
				Error string
				Point *int
			}
			if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil || resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(refused.Error, tc.why) {
				t.Fatalf("POST: status %d, %v, %q; want a 400 saying %s", resp.StatusCode, err, refused.Error, tc.why)
			}
			at := ""
			if refused.Point != nil {
				at = "point " + strconv.Itoa(*refused.Point) + ": "
			}
			if at != tc.at {
				t.Fatalf("POST: the refusal names %q, want %q", at, tc.at)
			}
			stdout, stderr, code := privbench(t, body, "-spec -")
			if code != 2 || stdout != "" {
				t.Fatalf("privbench -spec: exit status %d, stdout %q", code, stdout)
			}
			if want := "privbench: -spec: " + at + refused.Error + "\n"; stderr != want {
				t.Errorf("privbench -spec says %q, the server %q", stderr, refused.Error)
			}
		})
	}
}

// A Spec document's checkpoint target goes through
// ampi.CheckpointTarget's text codec.
func TestParseTarget(t *testing.T) {
	for in, want := range map[string]ampi.CheckpointTarget{"fs": ampi.TargetFS, "buddy": ampi.TargetBuddy} {
		var got ampi.CheckpointTarget
		if err := got.UnmarshalText([]byte(in)); err != nil || got != want {
			t.Errorf("UnmarshalText(%s) = %v, %v", in, got, err)
		}
		if text, err := got.MarshalText(); err != nil || string(text) != in {
			t.Errorf("MarshalText(%v) = %q, %v", got, text, err)
		}
	}
	for _, in := range []string{"", "disk", "FS"} {
		var got ampi.CheckpointTarget
		if err := got.UnmarshalText([]byte(in)); err == nil {
			t.Errorf("UnmarshalText(%q) accepted", in)
		}
	}
	if _, err := ampi.CheckpointTarget(7).MarshalText(); err == nil {
		t.Error("a target with no name marshaled")
	}
}
