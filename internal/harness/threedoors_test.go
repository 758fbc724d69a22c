package harness_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/harness"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
	"provirt/internal/sim"
	"provirt/internal/trace"
)

// One point, three doors, one row: the harness's own supervised ftsweep
// Spec for (pieglobals, fs, 120 ms) and its elastic Spec for
// (pieglobals, fs, spot-busy), marshaled to the wire, produce
// byte-identical row JSON through Spec.Execute, POST /v1/runs and
// `privbench -spec` — and that row carries the numbers the figure's
// FTRow / ElasticRow (and through them the golden) report.
func TestOnePointThreeDoorsOneRow(t *testing.T) {
	const kind, target = core.KindPIEglobals, ampi.TargetFS

	mtbf := sim.Time(120 * time.Millisecond)
	ftRows, _, err := harness.FTSweep(harness.Opts{}, []sim.Time{mtbf})
	if err != nil {
		t.Fatal(err)
	}
	var ftRow harness.FTRow
	for _, r := range ftRows {
		if r.Method == kind && r.Target == target {
			ftRow = r
		}
	}
	// The golden's line for this point.
	if got := []string{trace.FormatDuration(ftRow.Total), trace.FormatDuration(ftRow.Interval)}; got[0] != "553.98ms" || got[1] != "19.58ms" ||
		ftRow.Checkpoints != 8 || ftRow.Recoveries != 4 {
		t.Fatalf("ftsweep row is not the golden's: %+v", ftRow)
	}

	var regime harness.ElasticRegime
	for _, r := range harness.ElasticRegimes() {
		if r.Name == "spot-busy" {
			regime = r
		}
	}
	elRows, _, err := harness.ElasticSweep(harness.Opts{}, []harness.ElasticRegime{regime})
	if err != nil {
		t.Fatal(err)
	}
	var elRow harness.ElasticRow
	for _, r := range elRows {
		if r.Method == kind && r.Target == target {
			elRow = r
		}
	}
	if trace.FormatDuration(elRow.Total) != "703.52ms" || elRow.Epochs != 2 || elRow.Drained != 2 {
		t.Fatalf("elastic row is not the golden's: %+v", elRow)
	}

	bin := filepath.Join(t.TempDir(), "privbench")
	if out, err := exec.Command("go", "build", "-o", bin, "provirt/cmd/privbench").CombinedOutput(); err != nil {
		t.Fatalf("building privbench: %v\n%s", err, out)
	}
	store, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(store, "test", 1).Handler(nil))
	defer ts.Close()

	for name, tc := range map[string]struct {
		spec  scenario.Spec
		check func(scenario.Row)
	}{
		"ftsweep": {
			harness.FTSupervisedSpec(kind, target, mtbf, ftRow.Interval, ftRow.Baseline),
			func(r scenario.Row) {
				if sim.Time(r.TotalNs) != ftRow.Total || r.Checkpoints != ftRow.Checkpoints ||
					r.Recoveries != ftRow.Recoveries || r.RestoredBytes != ftRow.RestoredBytes ||
					sim.Time(r.MeanRecoveryNs) != ftRow.MeanRecovery {
					t.Errorf("row %+v\ndisagrees with FTRow %+v", r, ftRow)
				}
			},
		},
		"elastic": {
			harness.ElasticSpec(kind, target, regime),
			func(r scenario.Row) {
				if sim.Time(r.TotalNs) != elRow.Total || r.Checkpoints != elRow.Checkpoints ||
					r.Recoveries != 0 || r.RestoredBytes != 0 || r.Epochs != elRow.Epochs ||
					r.Drained != elRow.Drained || sim.Time(r.NodeTimeNs) != elRow.NodeSeconds {
					t.Errorf("row %+v\ndisagrees with ElasticRow %+v", r, elRow)
				}
			},
		},
	} {
		t.Run(name, func(t *testing.T) {
			doc, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}

			row, _, err := tc.spec.Execute()
			if err != nil {
				t.Fatal(err)
			}
			tc.check(row)
			executed, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}

			// Both doors take the same body.
			body := append(append([]byte(`{"spec":`), doc...), '}')
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var served []byte
			for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
				var line struct {
					Row   json.RawMessage `json:"row"`
					Error string          `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
					t.Fatalf("POST /v1/runs: %v %s in %s", err, line.Error, sc.Bytes())
				}
				if line.Row != nil {
					served = line.Row
				}
			}

			cmd := exec.Command(bin, "-spec", "-")
			cmd.Stdin = bytes.NewReader(body)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("privbench -spec: %v", err)
			}
			lines := bytes.Split(bytes.TrimRight(out, "\n"), []byte("\n"))
			printed := lines[len(lines)-1]

			if !bytes.Equal(executed, served) || !bytes.Equal(executed, printed) {
				t.Errorf("three doors, three rows:\n  Execute        %s\n  POST /v1/runs  %s\n  privbench -spec %s", executed, served, printed)
			}
		})
	}
}
