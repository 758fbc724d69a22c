package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"provirt/internal/ampi"
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

// TestUnmatchedTraceLeavesNoFile runs main in a child copy of the test
// binary: a trace selection no sweep point matches must exit 1 after
// printing the figure, and remove the file it opened to stream into.
func TestUnmatchedTraceLeavesNoFile(t *testing.T) {
	if args := os.Getenv("PRIVBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"privbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	out := filepath.Join(t.TempDir(), "n.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnmatchedTraceLeavesNoFile$")
	cmd.Env = append(os.Environ(), "PRIVBENCH_TEST_ARGS=-experiment fig5 -trace-method swapglobals -trace "+out)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("privbench with an unmatched trace: %v, want exit status 1", err)
	}
	if !strings.Contains(stderr.String(), "matched no run") {
		t.Errorf("stderr does not say the selection matched no run: %q", stderr.String())
	}
	if !strings.Contains(stdout.String(), "Figure 5") {
		t.Errorf("stdout does not carry the figure: %q", stdout.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("an unmatched trace left its file behind: %v", err)
	}
}

// TestBadFlagValuesAreRefused runs main in a child copy of the test
// binary for each flag value that has no meaning: each must exit 2
// naming the flag before anything runs, not fall back to a default.
func TestBadFlagValuesAreRefused(t *testing.T) {
	if args := os.Getenv("PRIVBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"privbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, tc := range []struct{ flag, args string }{
		{"-nodes", "-experiment fig5 -nodes -3"},
		{"-nodes", "-experiment fig5 -nodes 0"},
		{"-vps", "-experiment scale -vps -7"},
		{"-sim-workers", "-experiment scale -vps 64 -sim-workers -1"},
		{"-serve-workers", "-experiment fig5 -serve-workers -1"},
		{"-cache-entries", "-experiment fig5 -cache-entries -1"},
		{"-churn-notice", "-experiment elastic -churn-rate 50ms -churn-notice -1ms"},
		{"-trace-target", "-experiment ftsweep -profile-ranks -trace-target disk"},
	} {
		t.Run(tc.args, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestBadFlagValuesAreRefused$")
			cmd.Env = append(os.Environ(), "PRIVBENCH_TEST_ARGS="+tc.args)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("privbench %s: %v, want exit status 2", tc.args, err)
			}
			if !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("stderr does not name %s: %q", tc.flag, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("a refused run printed %q", stdout.String())
			}
		})
	}
}

// -trace-target is read by ampi.CheckpointTarget's text codec, the one
// a Spec document's checkpoint target goes through.
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
