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
	"time"

	"provirt/internal/ampi"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
	"provirt/internal/sim"
)

func TestParseInts(t *testing.T) {
	good := map[string][]int{
		"1":            {1},
		"1,2,4":        {1, 2, 4},
		" 8 , 16 ":     {8, 16},
		"1,2,4,8,16,,": {1, 2, 4, 8, 16},
	}
	for in, want := range good {
		got, err := parseInts(in)
		if err != nil {
			t.Errorf("parseInts(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseInts(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseInts(%q) = %v, want %v", in, got, want)
			}
		}
	}
	for _, in := range []string{"", "x", "0", "-2", "1,zero"} {
		if _, err := parseInts(in); err == nil {
			t.Errorf("parseInts(%q) accepted", in)
		}
	}
}

func TestParseDurations(t *testing.T) {
	good := map[string][]sim.Time{
		"":             nil, // empty selects the experiment default
		"   ":          nil,
		"120ms":        {sim.Time(120 * time.Millisecond)},
		"120ms, 1s ,":  {sim.Time(120 * time.Millisecond), sim.Time(time.Second)},
		"500us,2m":     {sim.Time(500 * time.Microsecond), sim.Time(2 * time.Minute)},
		"1.5s":         {sim.Time(1500 * time.Millisecond)},
		"120ms,,960ms": {sim.Time(120 * time.Millisecond), sim.Time(960 * time.Millisecond)},
	}
	for in, want := range good {
		got, err := parseDurations(in)
		if err != nil {
			t.Errorf("parseDurations(%q): %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseDurations(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseDurations(%q) = %v, want %v", in, got, want)
			}
		}
	}
	for _, in := range []string{"x", "120", "0s", "-5ms", "120ms,never"} {
		if _, err := parseDurations(in); err == nil {
			t.Errorf("parseDurations(%q) accepted", in)
		}
	}
}

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

// Each flag value that has no meaning must exit 2 naming the flag
// before anything runs, not fall back to a default.
func TestBadFlagValuesAreRefused(t *testing.T) {
	for _, tc := range []struct{ flag, args string }{
		{"-nodes", "-experiment fig5 -nodes -3"},
		{"-nodes", "-experiment fig5 -nodes 0"},
		{"-vps", "-experiment scale -vps -7"},
		{"-sim-workers", "-experiment scale -vps 64 -sim-workers -1"},
		{"-serve-workers", "-experiment fig5 -serve-workers -1"},
		{"-cache-entries", "-experiment fig5 -cache-entries -1"},
		{"-churn-notice", "-experiment elastic -churn-rate 50ms -churn-notice -1ms"},
		{"-trace-point", "-experiment fig5 -trace-point method=none,nodes=1"},
		{"-trace-format", "-experiment fig5 -trace-format chrome"},
		{"-trace-point", "-spec - -profile-ranks -trace-point method=none"},
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
// "points", a repeated key, data after the body and a sweep past
// scenario.MaxPoints are refused with the error the server answers them
// with.
func TestSpecRefusesWhatTheServerRefuses(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(store, "test", 1).Handler(nil))
	defer ts.Close()
	for name, tc := range map[string]struct{ body, why string }{
		"bare spec":       {hello("none"), `unknown field "workload"`},
		"spec and points": {`{"spec":` + hello("none") + `,"points":[` + hello("none") + "]}", "mutually exclusive"},
		"repeated key":    {`{"points":[` + hello("none") + `],"points":[` + hello("pieglobals") + "]}", "appears twice"},
		"trailing data":   {`{"spec":` + hello("none") + `}{"spec":` + hello("pieglobals") + "}", "data after"},
		"too many points": {`{"points":[` + strings.Repeat(hello("none")+",", scenario.MaxPoints) + hello("none") + "]}", strconv.Itoa(scenario.MaxPoints)},
	} {
		t.Run(name, func(t *testing.T) {
			body := tc.body
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var refused struct{ Error string }
			if err := json.NewDecoder(resp.Body).Decode(&refused); err != nil || resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(refused.Error, tc.why) {
				t.Fatalf("POST: status %d, %v, %q; want a 400 saying %s", resp.StatusCode, err, refused.Error, tc.why)
			}
			stdout, stderr, code := privbench(t, body, "-spec -")
			if code != 2 || stdout != "" {
				t.Fatalf("privbench -spec: exit status %d, stdout %q", code, stdout)
			}
			if want := "privbench: -spec: " + refused.Error + "\n"; stderr != want {
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
