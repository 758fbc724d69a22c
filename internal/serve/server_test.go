package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provirt/internal/ampi"
	"provirt/internal/core"
	"provirt/internal/ft"
	"provirt/internal/harness"
	"provirt/internal/machine"
	"provirt/internal/obs"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/workloads/synth"
)

// newTestServer boots a server over a fresh store with obs installed,
// serving /metrics beside the API the way privbench -serve does.
func newTestServer(t testing.TB, workers int) (*Server, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	EnableObs(reg)
	t.Cleanup(func() { EnableObs(nil) })
	store, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(store, "test", workers)
	ts := httptest.NewServer(s.Handler(obs.NewHandler(reg)))
	t.Cleanup(ts.Close)
	return s, ts
}

// scrape reads one counter from the server's /metrics.
func scrape(t *testing.T, url, name string) uint64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s:\n%s", name, data)
	return 0
}

// tinySpec is the fastest runnable point: the empty workload
// (init/finalize only) at a handful of VPs.
func tinySpec(vps int) scenario.Spec {
	sp := scenario.DefaultSpec("empty")
	sp.VPs = vps
	return sp
}

// sweep48 is a sweep of 48 distinct tiny points, the size of one
// serve_sweep request.
func sweep48() []scenario.Spec {
	points := make([]scenario.Spec, 48)
	for i := range points {
		points[i] = tinySpec(4)
		points[i].Machine.Seed = uint64(i + 1)
	}
	return points
}

func postRuns(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	doc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// parseStream splits an NDJSON response into header, point lines, and
// trailer, checking the framing invariants along the way.
func parseStream(t *testing.T, data []byte) (headerLine, []pointLine, trailerLine) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []json.RawMessage
	for sc.Scan() {
		lines = append(lines, append(json.RawMessage(nil), sc.Bytes()...))
	}
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want >= 2: %s", len(lines), data)
	}
	var hdr headerLine
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header: %v in %s", err, lines[0])
	}
	var trailer trailerLine
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil || !trailer.Done {
		t.Fatalf("trailer: err=%v done=%v in %s", err, trailer.Done, lines[len(lines)-1])
	}
	var points []pointLine
	for i, raw := range lines[1 : len(lines)-1] {
		var p pointLine
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatalf("point: %v in %s", err, raw)
		}
		if p.Index != i {
			t.Fatalf("point %d arrived at position %d: stream must be in index order", p.Index, i)
		}
		points = append(points, p)
	}
	if len(points) != hdr.Points {
		t.Fatalf("header promises %d points, stream has %d", hdr.Points, len(points))
	}
	return hdr, points, trailer
}

// The headline tentpole contract: the same Spec POSTed twice returns
// byte-identical row payloads, the second served from cache — hit
// counter up, executed counter unchanged.
func TestSecondPostIsByteIdenticalCacheHit(t *testing.T) {
	_, ts := newTestServer(t, 2)
	body := map[string]any{"points": []scenario.Spec{tinySpec(4)}}

	resp, data := postRuns(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp.StatusCode, data)
	}
	_, pts1, tr1 := parseStream(t, data)
	if tr1.Executed != 1 || tr1.Cached != 0 || pts1[0].Cached {
		t.Fatalf("first POST should execute: %+v", tr1)
	}
	if len(pts1[0].Row) == 0 {
		t.Fatal("first POST returned no row")
	}
	executedAfterFirst := pointsExecuted.Value()
	hitsAfterFirst := CacheHits()

	resp, data = postRuns(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d %s", resp.StatusCode, data)
	}
	_, pts2, tr2 := parseStream(t, data)
	if tr2.Cached != 1 || tr2.Executed != 0 || !pts2[0].Cached {
		t.Fatalf("second POST should be a cache hit: %+v", tr2)
	}
	if !bytes.Equal(pts1[0].Row, pts2[0].Row) {
		t.Fatalf("row payloads differ:\n first=%s\nsecond=%s", pts1[0].Row, pts2[0].Row)
	}
	if pointsExecuted.Value() != executedAfterFirst {
		t.Fatalf("second POST executed a simulation: %d -> %d", executedAfterFirst, pointsExecuted.Value())
	}
	if CacheHits() <= hitsAfterFirst {
		t.Fatal("cache hit counter did not increment")
	}

	var row scenario.Row
	if err := json.Unmarshal(pts1[0].Row, &row); err != nil {
		t.Fatalf("row payload not a Row: %v", err)
	}
	if row.Workload != "empty" || row.VPs != 4 || row.FinishNs <= 0 {
		t.Fatalf("implausible row: %+v", row)
	}
}

// N concurrent identical POSTs collapse onto one execution.
func TestConcurrentIdenticalPostsExecuteOnce(t *testing.T) {
	_, ts := newTestServer(t, 4)
	body, _ := json.Marshal(map[string]any{"points": []scenario.Spec{tinySpec(6)}})

	const n = 8
	payloads := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[g] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			payloads[g], errs[g] = io.ReadAll(resp.Body)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", g, err)
		}
	}
	if got := pointsExecuted.Value(); got != 1 {
		t.Fatalf("%d concurrent identical POSTs executed %d simulations, want 1", n, got)
	}
	// Every response carries the same row bytes, whether it led,
	// joined, or hit the cache.
	_, pts0, _ := parseStream(t, payloads[0])
	for g := 1; g < n; g++ {
		_, pts, _ := parseStream(t, payloads[g])
		if !bytes.Equal(pts0[0].Row, pts[0].Row) {
			t.Fatalf("request %d row differs from request 0", g)
		}
	}
	if CacheHits()+dedupJoins.Value() < n-1 {
		t.Fatalf("hits=%d joins=%d: the other %d requests neither hit nor joined",
			CacheHits(), dedupJoins.Value(), n-1)
	}
}

// Editing a sweep re-runs only the changed point.
func TestEditedSweepRerunsOnlyChangedPoint(t *testing.T) {
	_, ts := newTestServer(t, 2)
	a, b := tinySpec(4), tinySpec(8)

	resp, data := postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{a}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST [A]: %d %s", resp.StatusCode, data)
	}
	if got := pointsExecuted.Value(); got != 1 {
		t.Fatalf("POST [A] executed %d, want 1", got)
	}

	resp, data = postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{a, b}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST [A,B]: %d %s", resp.StatusCode, data)
	}
	_, pts, tr := parseStream(t, data)
	if got := pointsExecuted.Value(); got != 2 {
		t.Fatalf("POST [A,B] executed %d total, want 2 (only B is new)", got)
	}
	if !pts[0].Cached || pts[1].Cached {
		t.Fatalf("want A cached and B executed, got A.cached=%v B.cached=%v", pts[0].Cached, pts[1].Cached)
	}
	if tr.Cached != 1 || tr.Executed != 1 {
		t.Fatalf("trailer %+v, want cached=1 executed=1", tr)
	}
}

func TestValidationErrorsAreStructured400s(t *testing.T) {
	_, ts := newTestServer(t, 1)
	bad := tinySpec(4)
	bad.VPs = -3
	resp, data := postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{tinySpec(4), bad}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var doc errorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("400 body not JSON: %v in %s", err, data)
	}
	if doc.Point == nil || *doc.Point != 1 {
		t.Fatalf("400 should name point 1: %+v", doc)
	}
	found := false
	for _, f := range doc.Fields {
		if f.Field == "VPs" && f.Msg != "" {
			found = true
		}
	}
	if !found {
		t.Fatalf("400 fields missing VPs: %+v", doc.Fields)
	}
	if pointsExecuted.Value() != 0 {
		t.Fatal("invalid sweep still executed points")
	}
}

// A point with more ranks than the Isomalloc arena holds used to panic in
// mem.NewHeap on a worker and take the server down. It is a structured
// 400 now, and the server keeps answering.
func TestOversizedWorldIs400AndServerSurvives(t *testing.T) {
	_, ts := newTestServer(t, 1)
	big := tinySpec(2048)
	big.Method = core.KindTLSglobals
	resp, data := postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{big}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var doc errorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("400 body not JSON: %v in %s", err, data)
	}
	if len(doc.Fields) != 1 || doc.Fields[0].Field != "VPs" {
		t.Fatalf("400 should carry one VPs field error: %+v", doc)
	}
	resp, data = postRuns(t, ts.URL, map[string]any{"spec": tinySpec(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the rejected one: %d %s", resp.StatusCode, data)
	}
	if _, pts, _ := parseStream(t, data); len(pts) != 1 || len(pts[0].Row) == 0 {
		t.Fatalf("request after the rejected one produced no row: %+v", pts)
	}
}

// An unknown key is a 400 naming it and its point, wherever the point
// sits: in "points", or in a "spec" that follows "points".
func TestUnknownFieldIs400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	const point = `{"workload":"empty","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}%s}`
	bodies := map[string]string{
		`{"points":[` + fmt.Sprintf(point, "") + `],"spec":` + fmt.Sprintf(point, `,"bogus":1`) + `}`: "bogus",
	}
	for field, key := range map[string]string{
		`"virtual_processors":4`:                       "virtual_processors",
		`"sim_workers":4`:                              "sim_workers",
		`"workload_params":{"has_lb":true}`:            "has_lb",
		`"tweaks":{"patched_glibc":true}`:              "tweaks",
		`"toolchain":{"name":"gcc-10.2.0","pie":true}`: "name",
	} {
		bodies[`{"points":[`+fmt.Sprintf(point, ","+field)+`]}`] = key
	}
	for body, key := range bodies {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), key) ||
			!strings.Contains(string(data), `"point":0`) {
			t.Errorf("%s: status %d, body %s; want a 400 naming %s in point 0", body, resp.StatusCode, data, key)
		}
	}
}

// A key nothing in the run would read is refused with a 400 naming it:
// a node grouping beside a balancer other than hierarchical (or no
// balancer), a negative one, a workload parameter the workload does not
// read, and one past its bound.
func TestUnreadKeyIs400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for point, key := range map[string]string{
		`"workload":"adcirc","balancer":"greedy","balancer_pes_per_node":7`:        "balancer_pes_per_node",
		`"workload":"adcirc","balancer_pes_per_node":7`:                            "balancer_pes_per_node",
		`"workload":"adcirc","balancer":"hierarchical","balancer_pes_per_node":-5`: "balancer_pes_per_node",
		`"workload":"jacobi","workload_params":{"heap_bytes":1048576}`:             "heap_bytes",
		`"workload":"adcirc","workload_params":{"grid":8}`:                         "grid",
		`"workload":"jacobi","workload_params":{"iters":1001}`:                     "iters",
		`"workload":"jacobi","workload_params":{"grid":-1}`:                        "grid",
	} {
		body := `{"points":[{"vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2},` + point + `}]}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), key) {
			t.Errorf("%s: status %d, body %s; want a 400 naming %s", point, resp.StatusCode, data, key)
		}
	}
	if pointsExecuted.Value() != 0 {
		t.Fatal("a refused body executed a point")
	}
}

// A key the envelope does not define is refused, not ignored.
func TestUnknownEnvelopeKeyIs400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"points":[{"workload":"empty","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}],"priority":1}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "priority") {
		t.Fatalf("status %d, body %s; want a 400 naming priority", resp.StatusCode, data)
	}
	if pointsExecuted.Value() != 0 {
		t.Fatal("a refused body executed a point")
	}
}

// An unknown method, environment policy or balancer is refused with
// the index of the point that names it.
func TestUnknownNameIs400NamingItsPoint(t *testing.T) {
	_, ts := newTestServer(t, 1)
	const good = `{"workload":"empty","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`
	for key, bad := range map[string]string{
		"method":     `"method":"nope"`,
		"env_policy": `"env_policy":"nope"`,
		"balancer":   `"balancer":"nope"`,
	} {
		body := `{"points":[` + good + `,` + strings.Replace(good, `"vps":4`, `"vps":4,`+bad, 1) + `]}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc errorDoc
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &doc) != nil ||
			doc.Point == nil || *doc.Point != 1 || !strings.Contains(doc.Error, `"nope"`) {
			t.Errorf("%s: status %d, body %s; want a 400 naming point 1 and the name", key, resp.StatusCode, data)
		}
	}
	if pointsExecuted.Value() != 0 {
		t.Fatal("a refused sweep executed a point")
	}
}

// A body past MaxBodyBytes is refused as too large, not as malformed,
// wherever the limit cuts it: between tokens, or inside a point's
// string or a literal, which the decoder holds whole. One malformed
// before the limit is refused as malformed.
func TestOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, c := range []struct {
		head, fill string
		status     int
	}{
		{`{"points":[`, " ", http.StatusRequestEntityTooLarge},
		{`{"points":[{"workload":"`, " ", http.StatusRequestEntityTooLarge},
		{`{"points":[`, "1", http.StatusRequestEntityTooLarge},
		{`{"spec":`, "2", http.StatusRequestEntityTooLarge},
		{`{"points":[{"workload":x`, " ", http.StatusBadRequest},
	} {
		body := c.head + strings.Repeat(c.fill, MaxBodyBytes+1-len(c.head))
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("a %d-byte body opening %s: status %d (%s), want %d", len(body), c.head, resp.StatusCode, data, c.status)
		}
	}
}

// A sweep one point past scenario.MaxPoints is refused as that point
// arrives, with a 400 naming the limit, and nothing runs.
func TestSweepPastMaxPointsIs400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	points := make([]scenario.Spec, scenario.MaxPoints+1)
	for i := range points {
		points[i] = tinySpec(4)
	}
	resp, data := postRuns(t, ts.URL, map[string]any{"points": points})
	var doc errorDoc
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &doc) != nil ||
		!strings.Contains(doc.Error, strconv.Itoa(scenario.MaxPoints)) {
		t.Fatalf("status %d, body %s; want a 400 naming the %d-point limit", resp.StatusCode, data, scenario.MaxPoints)
	}
	if n := scrape(t, ts.URL, "serve_points_executed_total"); n != 0 {
		t.Fatalf("a refused sweep executed %d points", n)
	}
}

// A body of MaxBodyBytes filled with empty points, 2.8 M of them, is
// refused at the first: decoded whole before any point was looked at,
// it allocated 2.7 GB.
func TestBodyOfEmptyPointsIsRefusedAtItsFirst(t *testing.T) {
	s, _ := newTestServer(t, 1)
	h := s.Handler(nil)
	const head, tail = `{"points":[`, `{}]}`
	n := (MaxBodyBytes - len(head) - len(tail)) / len(`{},`)
	body := []byte(head + strings.Repeat(`{},`, n) + tail)
	req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d empty points: status %d (%s), want 400", n+1, rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("refusing %d empty points allocated %d B, want under 4 MB", n+1, alloc)
	}
}

// The wire can name a machine the model cannot hold: 30 M PEs for four
// ranks used to answer the header line and then pin a pool slot at
// 850 MB and climbing; a product that wraps int got past positivity
// checks. Both are a structured 400 and nothing runs.
func TestMachineBeyondRanksIs400(t *testing.T) {
	s, ts := newTestServer(t, 1)
	for _, m := range []string{
		`{"nodes":3000,"procs_per_node":100,"pes_per_proc":100}`,
		`{"nodes":1000000,"procs_per_node":1000000,"pes_per_proc":1000000}`,
	} {
		body := `{"points":[{"workload":"empty","vps":4,"machine":` + m + `}]}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var doc errorDoc
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(data, &doc) != nil ||
			len(doc.Fields) != 1 || doc.Fields[0].Field != "Machine" {
			t.Errorf("%s: status %d, want a 400 with one Machine field error: %s", m, resp.StatusCode, data)
		}
	}
	if pointsExecuted.Value() != 0 || s.store.Len() != 0 {
		t.Fatalf("refused points executed %d point(s) and stored %d entries", pointsExecuted.Value(), s.store.Len())
	}
}

// The scripts/serve_smoke.sh point's stored row, byte for byte what it
// was before rows could carry supervised columns.
func TestBareRowBytesArePinned(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(
		`{"points":[{"workload":"empty","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":1},"method":"pieglobals"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	_, pts, _ := parseStream(t, data)
	const want = `{"workload":"empty","method":"pieglobals","vps":4,"nodes":2,"setup_ns":96128674,"finish_ns":96135481,"migrations":0,"migrated_bytes":0,"migrated_delta_bytes":0,"skipped_balances":0,"checkpoints":0}`
	if len(pts) != 1 || string(pts[0].Row) != want {
		t.Fatalf("row moved:\n got %s\nwant %s", pts[0].Row, want)
	}
}

// stack_size reaches mem.(*Heap).AllocBallast unchanged. A value that
// wraps the allocator's arithmetic used to be answered with the default
// row, stored under a new hash; it is a structured 400 and nothing runs.
func TestStackSizeBeyondRankRangeIs400(t *testing.T) {
	s, ts := newTestServer(t, 1)
	huge := tinySpec(4)
	huge.StackSize = 1<<64 - 1
	resp, data := postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{huge}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
	}
	var doc errorDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("400 body not JSON: %v in %s", err, data)
	}
	if len(doc.Fields) != 1 || doc.Fields[0].Field != "StackSize" {
		t.Fatalf("400 should carry one StackSize field error: %s", data)
	}
	if pointsExecuted.Value() != 0 || s.store.Len() != 0 {
		t.Fatalf("refused point executed %d point(s) and stored %d entries", pointsExecuted.Value(), s.store.Len())
	}
}

func TestEmptyAndAmbiguousBodiesAre400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for _, body := range []string{
		`{}`,
		`{"points":[],"spec":null}`,
		fmt.Sprintf(`{"spec":{"workload":"empty","vps":2},"points":[{"workload":"empty","vps":2}]}`),
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestSpecShorthand(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, data := postRuns(t, ts.URL, map[string]any{"spec": tinySpec(2)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	_, pts, _ := parseStream(t, data)
	if len(pts) != 1 || len(pts[0].Row) == 0 {
		t.Fatalf("shorthand spec did not produce one row: %+v", pts)
	}
}

func TestGetRunReplaysCompletedSweep(t *testing.T) {
	_, ts := newTestServer(t, 2)
	resp, data := postRuns(t, ts.URL, map[string]any{"points": []scenario.Spec{tinySpec(4), tinySpec(8)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, data)
	}
	hdr, pts, _ := parseStream(t, data)
	if hdr.Run == "" {
		t.Fatal("no run hash in header")
	}

	resp2, err := http.Get(ts.URL + "/v1/runs/" + hdr.Run)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET run: %d %s", resp2.StatusCode, replay)
	}
	hdr2, pts2, tr2 := parseStream(t, replay)
	if hdr2.Run != hdr.Run || len(pts2) != len(pts) {
		t.Fatalf("replay mismatch: %+v vs %+v", hdr2, hdr)
	}
	for i := range pts {
		if !pts2[i].Cached {
			t.Fatalf("replay point %d not cached", i)
		}
		if !bytes.Equal(pts[i].Row, pts2[i].Row) {
			t.Fatalf("replay point %d rows differ", i)
		}
	}
	if tr2.Cached != len(pts) || tr2.Executed != 0 {
		t.Fatalf("replay trailer %+v", tr2)
	}

	resp3, err := http.Get(ts.URL + "/v1/runs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: %d, want 404", resp3.StatusCode)
	}
}

// A run's manifest is its point hashes, in index order, and nothing
// else: the points' documents are not decoded again to store them.
func TestManifestIsItsPointHashes(t *testing.T) {
	s, ts := newTestServer(t, 1)
	const point = `{"workload":"empty","vps":%d,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1},"method":"pieglobals"}`
	body := `{"points":[` + fmt.Sprintf(point, 2) + `,` + fmt.Sprintf(point, 4) + `]}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d %s", resp.StatusCode, data)
	}
	hdr, pts, _ := parseStream(t, data)
	payload, ok := s.store.Get("run", hdr.Run)
	if !ok {
		t.Fatal("no manifest stored")
	}
	if want := `{"points":["` + pts[0].Hash + `","` + pts[1].Hash + `"]}`; string(payload) != want {
		t.Fatalf("manifest %s, want %s", payload, want)
	}
}

// A replay touches no disk: after a sweep's first POST has stored its
// rows and its manifest, the same POST and a GET of the run write no
// store entry, and both answer every point cached with the first
// POST's row bytes.
func TestReplayWritesNothing(t *testing.T) {
	_, ts := newTestServer(t, 2)
	body := map[string]any{"points": sweep48()}
	resp, data := postRuns(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d %s", resp.StatusCode, data)
	}
	hdr, first, _ := parseStream(t, data)
	written := scrape(t, ts.URL, "resultstore_puts_total")
	if written != 49 {
		t.Fatalf("first POST wrote %d entries, want 48 rows and a manifest", written)
	}

	_, data = postRuns(t, ts.URL, body)
	_, again, trailer := parseStream(t, data)
	get, err := http.Get(ts.URL + "/v1/runs/" + hdr.Run)
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(get.Body)
	get.Body.Close()
	_, replayed, trailer2 := parseStream(t, replay)
	if trailer.Cached != 48 || trailer2.Cached != 48 {
		t.Fatalf("replays not fully cached: POST %+v, GET %+v", trailer, trailer2)
	}
	for i := range first {
		if !bytes.Equal(first[i].Row, again[i].Row) || !bytes.Equal(first[i].Row, replayed[i].Row) {
			t.Fatalf("point %d not byte-identical across the first POST, the second and the GET", i)
		}
	}
	if got := scrape(t, ts.URL, "resultstore_puts_total"); got != written {
		t.Fatalf("replays wrote %d store entries, want 0", got-written)
	}
}

// A response streams line by line only while one of its points
// executes; a fully cached one is sent whole when the handler returns.
func TestOnlyExecutingResponsesFlush(t *testing.T) {
	s, _ := newTestServer(t, 1)
	h := s.Handler(nil)
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}
	const a = `{"workload":"empty","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`
	const b = `{"workload":"empty","vps":8,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`
	if !post(`{"points":[` + a + `]}`).Flushed {
		t.Error("a response whose point executed was not flushed")
	}
	if post(`{"points":[` + a + `]}`).Flushed {
		t.Error("a fully cached response was flushed")
	}
	if !post(`{"points":[` + a + `,` + b + `]}`).Flushed {
		t.Error("a response with one executing point was not flushed")
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// discard is a ResponseWriter that keeps nothing of the response but
// its status, so what a replay allocates is the handler's own.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }

// replayer posts one body to a handler again and again, through one
// request whose body it rewinds, into a discarding writer.
type replayer struct {
	h    http.Handler
	body []byte
	rd   bytes.Reader
	req  *http.Request
	w    discard
}

// newReplayer is a replayer of a sweep of points.
func newReplayer(tb testing.TB, h http.Handler, points []scenario.Spec) *replayer {
	body, err := json.Marshal(map[string]any{"points": points})
	if err != nil {
		tb.Fatal(err)
	}
	p := &replayer{h: h, body: body, w: discard{h: http.Header{}}}
	p.req = httptest.NewRequest(http.MethodPost, "/v1/runs", nil)
	p.req.Body = io.NopCloser(&p.rd)
	return p
}

// post sends the body once and returns the status.
func (p *replayer) post() int {
	p.rd.Reset(p.body)
	p.w.code = http.StatusOK
	p.h.ServeHTTP(&p.w, p.req)
	return p.w.code
}

// A replayed sweep is a lookup per point, and what the handler
// allocates for it does not grow with the sweep: the request's state,
// the decoder's buffer and the response buffer are recycled, and each
// point's hashes stay binary until they are written. A 4-point and a
// 48-point replay allocate the same count, at most 16 (4 measured), and
// the 48-point one at most 1 000 B (208 measured). The race detector's
// sync.Pool drops a quarter of what is put back, so there the counts
// differ run to run and the bytes are whatever regrowing costs; the
// 48-point replay must still allocate fewer times than it has points
// (9 to 16 measured), which a path allocating once per point fails.
func TestReplayedSweepAllocationBudget(t *testing.T) {
	const budget, byteBudget, raceBudget = 16, 1000, 48
	s, _ := newTestServer(t, 2)
	h := s.Handler(nil)
	var counts []float64
	var bytesPerReplay uint64
	for _, n := range []int{4, 48} {
		p := newReplayer(t, h, sweep48()[:n])
		if code := p.post(); code != http.StatusOK { // executes the points
			t.Fatalf("%d points: first POST: status %d", n, code)
		}
		const replays = 50
		allocs := testing.AllocsPerRun(replays, func() {
			if code := p.post(); code != http.StatusOK {
				t.Fatalf("%d points: replay: status %d", n, code)
			}
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range replays {
			p.post()
		}
		runtime.ReadMemStats(&after)
		bytesPerReplay = (after.TotalAlloc - before.TotalAlloc) / replays
		t.Logf("a %d-point replay: %.0f allocations, %d B", n, allocs, bytesPerReplay)
		counts = append(counts, allocs)
	}
	if raceEnabled {
		if counts[1] >= raceBudget {
			t.Errorf("under -race a 48-point replay allocates %v times, want fewer than %d", counts[1], raceBudget)
		}
		return
	}
	if counts[0] != counts[1] || counts[1] > budget {
		t.Errorf("4- and 48-point replays allocate %v and %v times, want the same count, at most %d", counts[0], counts[1], budget)
	}
	if bytesPerReplay > byteBudget {
		t.Errorf("a 48-point replay allocates %d B, budget %d B", bytesPerReplay, byteBudget)
	}
}

// BenchmarkReplaySweep replays a 48-point sweep the server has answered
// before, through the handler into a discarding writer: what one cached
// sweep costs the server, without a client or a connection.
func BenchmarkReplaySweep(b *testing.B) {
	s, _ := newTestServer(b, 2)
	p := newReplayer(b, s.Handler(nil), sweep48())
	if code := p.post(); code != http.StatusOK {
		b.Fatalf("first POST: status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		p.post()
	}
}

func TestExperimentsEndpointListsRegistries(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var doc struct {
		Version     string               `json:"version"`
		Experiments []harness.Experiment `json:"experiments"`
		Workloads   []workloadDoc        `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != "test" || len(doc.Experiments) == 0 || len(doc.Workloads) == 0 {
		t.Fatalf("thin registry listing: version=%q experiments=%d workloads=%d",
			doc.Version, len(doc.Experiments), len(doc.Workloads))
	}
	// Every advertised example Spec must be POSTable: valid and
	// declarative (hashing it exercises the canonical encoder).
	for _, wl := range doc.Workloads {
		if err := wl.DefaultSpec.Validate(); err != nil {
			t.Errorf("workload %s: default spec invalid: %v", wl.Name, err)
		}
		if _, err := wl.DefaultSpec.Hash(); err != nil {
			t.Errorf("workload %s: default spec unhashable: %v", wl.Name, err)
		}
	}
}

// Workload is required for server runs even though Validate alone
// accepts its absence (Config-only Specs exist for other callers).
func TestMissingWorkloadIs400(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"points":[{"vps":4}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// The server executes what it used to refuse: a point naming a churn
// or a fault process runs under the supervisor, its row carries the
// supervised columns, it is cached under its hash, and the run replays
// byte-identically.
func TestSupervisedPointsRunCacheAndReplay(t *testing.T) {
	_, ts := newTestServer(t, 2)
	base := func() scenario.Spec {
		return scenario.Spec{
			Machine: machine.Config{Nodes: 4, ProcsPerNode: 1, PEsPerProc: 2}, VPs: 8,
			Method: core.KindPIEglobals, Workload: "checkpointed",
			Checkpoint: &ampi.CheckpointPolicy{Target: ampi.TargetFS, Dir: "/scratch/served", Interval: 32 * time.Millisecond},
		}
	}
	churned, crashed := base(), base()
	churned.Churn = &ft.ChurnSpec{Seed: 20, EvictionEvery: 80 * time.Millisecond, Notice: 120 * time.Millisecond,
		Horizon: 200 * time.Millisecond, MaxEvents: 2}
	crashed.Faults = &ft.FaultSpec{Seed: 3, MTBF: 120 * time.Millisecond, Horizon: time.Second}
	body := map[string]any{"points": []scenario.Spec{churned, crashed}}

	resp, data := postRuns(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	hdr, pts, trailer := parseStream(t, data)
	if trailer.Executed != 2 || trailer.Failed != 0 {
		t.Fatalf("trailer %+v, want 2 executed: %s", trailer, data)
	}
	var rows [2]scenario.Row
	for i := range rows {
		if err := json.Unmarshal(pts[i].Row, &rows[i]); err != nil {
			t.Fatalf("point %d: %v in %s", i, err, pts[i].Row)
		}
	}
	if r := rows[0]; r.Epochs != 2 || r.Drained != 2 || r.Attempts != 3 || r.TotalNs <= 0 || r.NodeTimeNs <= 0 {
		t.Errorf("churn point's row lacks the supervised columns: %s", pts[0].Row)
	}
	if r := rows[1]; r.Recoveries == 0 || r.Attempts != r.Recoveries+1 || r.RestoredBytes == 0 || r.TotalNs <= 0 {
		t.Errorf("fault point's row lacks the supervised columns: %s", pts[1].Row)
	}

	executed := pointsExecuted.Value()
	_, again := postRuns(t, ts.URL, body)
	_, pts2, trailer2 := parseStream(t, again)
	if trailer2.Cached != 2 || pointsExecuted.Value() != executed {
		t.Fatalf("second POST: trailer %+v, executed %d -> %d", trailer2, executed, pointsExecuted.Value())
	}
	get, err := http.Get(ts.URL + "/v1/runs/" + hdr.Run)
	if err != nil {
		t.Fatal(err)
	}
	replay, _ := io.ReadAll(get.Body)
	get.Body.Close()
	_, pts3, _ := parseStream(t, replay)
	for i := range pts {
		if !bytes.Equal(pts[i].Row, pts2[i].Row) || !bytes.Equal(pts[i].Row, pts3[i].Row) || pts[i].Hash != pts3[i].Hash {
			t.Errorf("point %d not byte-identical across execute, cache hit and replay:\n%s\n%s\n%s", i, pts[i].Row, pts2[i].Row, pts3[i].Row)
		}
	}
}

// A crash every nanosecond out to a 146-year horizon must not be a
// long loop: the plan is bounded and the supervisor gives up, so the
// point fails in bounded time and the server answers.
func TestHostileFaultPlanFailsThePointInBoundedTime(t *testing.T) {
	_, ts := newTestServer(t, 1)
	done := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(
			`{"points":[{"workload":"checkpointed","vps":6,"machine":{"nodes":3,"procs_per_node":1,"pes_per_proc":2},"method":"pieglobals","faults":{"mtbf_ns":1,"horizon_ns":4611686018427387904}}]}`))
		if err != nil {
			done <- []byte(err.Error())
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- data
	}()
	select {
	case data := <-done:
		_, pts, trailer := parseStream(t, data)
		if trailer.Failed != 1 || !strings.Contains(pts[0].Error, "still failing") {
			t.Fatalf("want the point failed by restart exhaustion: %s", data)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("hostile fault plan still running after 30 s")
	}
}

// beforePanic, when set, runs inside the panicking constructor first: the
// test uses it to hold the leader until a joiner has lined up behind it.
var beforePanic atomic.Pointer[func()]

func init() {
	scenario.RegisterWorkload(scenario.Workload{
		Name:        "test-panicking-constructor",
		Description: "Main is fine; the constructor panics",
		New: func(scenario.WorkloadParams) (*ampi.Program, func()) {
			if hold := beforePanic.Load(); hold != nil {
				(*hold)()
			}
			panic("constructor exploded")
		},
	})
}

// A panic on the leader path used to kill the server and strand every
// joiner. It is an errored flight: the POST answers with a per-point
// error, a concurrent identical POST is released with the same error,
// the flight leaves the in-flight map, and the next request is served.
func TestPanickingConstructorIsAnErroredFlight(t *testing.T) {
	s, ts := newTestServer(t, 2)
	entered, gate := make(chan struct{}, 1), make(chan struct{})
	hold := func() {
		entered <- struct{}{}
		<-gate
	}
	beforePanic.Store(&hold)
	defer beforePanic.Store(nil)
	body, err := json.Marshal(map[string]any{"spec": scenario.DefaultSpec("test-panicking-constructor")})
	if err != nil {
		t.Fatal(err)
	}
	streams := make(chan []byte, 2)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			streams <- []byte(err.Error())
			return
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		streams <- data
	}
	pointError := func(data []byte) string {
		_, pts, trailer := parseStream(t, data)
		if trailer.Failed != 1 || len(pts) != 1 {
			t.Fatalf("unexpected stream: %s", data)
		}
		return pts[0].Error
	}
	go post()
	<-entered // the leader is inside the constructor
	go post()
	for deadline := time.Now().Add(10 * time.Second); dedupJoins.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second POST never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	first, second := pointError(<-streams), pointError(<-streams)
	if first != second || !strings.Contains(first, "panicked: constructor exploded") {
		t.Fatalf("leader and joiner must share the panic's error:\n%s\n%s", first, second)
	}
	if pointPanics.Value() != 1 {
		t.Errorf("serve_point_panics_total = %d, want 1", pointPanics.Value())
	}
	s.mu.Lock()
	left := len(s.inflight)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("%d flight(s) left in the in-flight map", left)
	}
	resp, data := postRuns(t, ts.URL, map[string]any{"spec": tinySpec(4)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: %d %s", resp.StatusCode, data)
	}
	if _, pts, _ := parseStream(t, data); len(pts) != 1 || len(pts[0].Row) == 0 {
		t.Fatalf("request after the panic produced no row: %+v", pts)
	}
}

// building counts the test-peak-concurrency points inside their
// constructor at once, and buildPeak the most there have been.
var building, buildPeak atomic.Int64

func init() {
	scenario.RegisterWorkload(scenario.Workload{
		Name:        "test-peak-concurrency",
		Description: "the empty program, built slowly while counting builds at once",
		New: func(scenario.WorkloadParams) (*ampi.Program, func()) {
			cur := building.Add(1)
			for {
				p := buildPeak.Load()
				if cur <= p || buildPeak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			building.Add(-1)
			return synth.Empty(), nil
		},
	})
}

// Leader admission is the server's semaphore: two concurrent cold
// sweeps on a two-worker server never have more than two points
// executing between them.
func TestLeadersShareTheWorkerBound(t *testing.T) {
	_, ts := newTestServer(t, 2)
	buildPeak.Store(0)
	sweep := func(first uint64) []scenario.Spec {
		points := make([]scenario.Spec, 12)
		for i := range points {
			points[i] = scenario.DefaultSpec("test-peak-concurrency")
			points[i].Machine.Seed = first + uint64(i)
		}
		return points
	}
	firsts := []uint64{1, 13}
	bodies := make([][]byte, len(firsts))
	var wg sync.WaitGroup
	for k, first := range firsts {
		body, err := json.Marshal(map[string]any{"points": sweep(first)})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body)); err == nil {
				bodies[k], _ = io.ReadAll(resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	for k, data := range bodies {
		if _, _, trailer := parseStream(t, data); trailer.Executed != 12 {
			t.Fatalf("sweep from seed %d: trailer %+v", firsts[k], trailer)
		}
	}
	if p := buildPeak.Load(); p > 2 {
		t.Fatalf("%d points executed at once on a 2-worker server", p)
	}
}

// A panicking leader frees its slot: on a one-worker server the slot
// returns, and the next POST runs. (The slot is checked first: a POST
// stuck behind a leaked slot would hang the test server's Close.)
func TestPanickingLeaderFreesItsSlot(t *testing.T) {
	s, ts := newTestServer(t, 1)
	_, data := postRuns(t, ts.URL, map[string]any{"spec": scenario.DefaultSpec("test-panicking-constructor")})
	if _, _, trailer := parseStream(t, data); trailer.Failed != 1 {
		t.Fatalf("panicking point: %s", data)
	}
	for deadline := time.Now().Add(10 * time.Second); len(s.sem) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the panicking leader kept the only slot")
		}
	}
	_, data = postRuns(t, ts.URL, map[string]any{"spec": tinySpec(4)})
	if _, pts, _ := parseStream(t, data); len(pts) != 1 || len(pts[0].Row) == 0 {
		t.Fatalf("request after the panic produced no row: %s", data)
	}
}

// A leader re-checks the store before executing: a flight that finished
// between this request's store probe and its claim already persisted the
// row. That point was served from the store, so it must be reported (and
// counted in the trailer) as cached — it used to read "executed", which
// made a dedup storm look as if it had run a point twice.
func TestLeaderThatFindsTheRowStoredReportsACacheHit(t *testing.T) {
	s, _ := newTestServer(t, 1)
	sp := tinySpec(4)
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.store.Put("pt", hash, []byte(`{"workload":"empty"}`)); err != nil {
		t.Fatal(err)
	}
	payload, stored, err := s.lead(hash, &sp)
	if err != nil || !stored || string(payload) != `{"workload":"empty"}` {
		t.Fatalf("lead = %s, stored %v, err %v; want the stored row", payload, stored, err)
	}
	if pointsExecuted.Value() != 0 {
		t.Fatalf("a stored point was executed %d time(s)", pointsExecuted.Value())
	}
}
