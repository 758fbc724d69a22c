package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// The acceptance contract for the metrics server: /metrics serves
// Prometheus text and the pprof endpoints answer.
func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_events_dispatched_total", "events").Add(42)

	srv := httptest.NewServer(NewHandler(r))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, frag := range []string{
		"# TYPE sim_events_dispatched_total counter",
		"sim_events_dispatched_total 42",
	} {
		if !strings.Contains(body, frag) {
			t.Fatalf("/metrics missing %q:\n%s", frag, body)
		}
	}

	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
	if code, _ := get("/"); code != http.StatusOK {
		t.Fatal("index not served")
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Fatal("unknown path not 404")
	}
}

// No live sweep progress is served: /progress is an unknown path.
func TestHandlerWithoutProgress(t *testing.T) {
	srv := httptest.NewServer(NewHandler(NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/progress: status %d, want 404", resp.StatusCode)
	}
}
