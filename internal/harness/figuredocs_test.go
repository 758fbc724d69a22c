package harness_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"provirt/internal/harness"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
)

// Every point of every experiment that runs Specs is a wire document:
// it has a content hash, and POSTing it to the server stores, under
// that hash, the row the figure's own sweep produced for it, byte for
// byte. The figures and this test build their points with the same
// functions (SpecSweeps in export_test.go).
func TestEveryFigurePointIsADocument(t *testing.T) {
	sweeps, err := harness.SpecSweeps()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range harness.Experiments() {
		_, swept := sweeps[e.Name]
		switch e.Name {
		case "tables", "icache", "scale": // they run no Spec
			if swept {
				t.Errorf("%s runs no Spec, yet has sweep points", e.Name)
			}
		default:
			if !swept {
				t.Errorf("experiment %s runs Specs, but SpecSweeps has no points for it", e.Name)
			}
		}
	}

	store, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.New(store, "test", 2).Handler(nil))
	defer ts.Close()

	names := make([]string, 0, len(sweeps))
	for name := range sweeps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		points := sweeps[name]
		t.Run(name, func(t *testing.T) {
			body := bytes.NewBufferString(`{"points":[`)
			hashes := make([]string, len(points))
			for i, p := range points {
				var sp scenario.Spec
				if err := json.Unmarshal(p.Doc, &sp); err != nil {
					t.Fatalf("%s: %v", p.Label, err)
				}
				if hashes[i], err = sp.Hash(); err != nil {
					t.Fatalf("%s: %v", p.Label, err)
				}
				if i > 0 {
					body.WriteByte(',')
				}
				body.Write(p.Doc)
			}
			body.WriteString("]}")
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /v1/runs: %s", resp.Status)
			}
			served := 0
			for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
				var line struct {
					Index int    `json:"index"`
					Hash  string `json:"hash"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Error != "" {
					t.Fatalf("POST /v1/runs: %v %s in %s", err, line.Error, sc.Bytes())
				}
				if line.Hash == "" {
					continue // the header or the trailer
				}
				served++
				p := points[line.Index]
				if line.Hash != hashes[line.Index] {
					t.Errorf("%s: served under %s, its Spec hashes to %s", p.Label, line.Hash, hashes[line.Index])
				}
				want, err := json.Marshal(p.Row)
				if err != nil {
					t.Fatal(err)
				}
				if stored, ok := store.Get("pt", line.Hash); !ok || !bytes.Equal(stored, want) {
					t.Errorf("%s: stored row\n  %s\nthe figure's row\n  %s", p.Label, stored, want)
				}
			}
			if served != len(points) {
				t.Errorf("%d points served, %d POSTed", served, len(points))
			}
		})
	}
}
