package resultstore_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"provirt/internal/obs"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
)

// record is one record of the log as the crash test sees it.
type record struct {
	kind, hash string
	end        int
}

// records splits a log that holds only records Put wrote.
func records(t *testing.T, log []byte) []record {
	t.Helper()
	var out []record
	for off := 0; off < len(log); {
		nl := bytes.IndexByte(log[off:], '\n')
		f := strings.Fields(string(log[off : off+max(nl, 0)]))
		if nl < 0 || len(f) != 6 {
			t.Fatalf("log at %d is not a record: %q", off, log[off:])
		}
		n, err := strconv.Atoi(f[4])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, record{kind: f[2], hash: f[3], end: off + nl + 1 + n})
		off = out[len(out)-1].end
	}
	return out
}

type pointLine struct {
	Index  int
	Hash   string
	Cached bool
	Row    json.RawMessage
	Error  string
}

// lines posts body to url (or GETs it when body is nil), calls each
// with every line of the response as it arrives, and returns the
// status code.
func lines(t *testing.T, url string, body []byte, each func(line []byte)) (status int) {
	t.Helper()
	var resp *http.Response
	var err error
	if body == nil {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 && each != nil {
			each(line)
		}
		if err != nil {
			return resp.StatusCode
		}
	}
}

// TestCrashAtEveryStep drives one POST's store traffic, 48 points and
// then the run manifest, through a two-worker server, and rebuilds each
// log a crash could leave: the prefix the last fsync covered, grown to
// any later record boundary, then nothing, half of the next record, or
// a zero-filled extent of its length. Over each, a reopened store and
// server replay every point whose Put had returned as cached:true with
// its row byte for byte, serve no row from a record Put did not
// complete, and list no point of GET /v1/runs/{hash} as present that
// is not; and a store reopened after that replay serves every point.
func TestCrashAtEveryStep(t *testing.T) {
	var mu sync.Mutex
	var synced int64 // the log length the fsyncs so far covered
	orig := *resultstore.SyncFile
	*resultstore.SyncFile = func(f *os.File) error {
		fi, err := f.Stat()
		if err == nil {
			err = orig(f)
		}
		if err == nil {
			mu.Lock()
			synced = max(synced, fi.Size())
			mu.Unlock()
		}
		return err
	}
	t.Cleanup(func() { *resultstore.SyncFile = orig })

	points := make([]scenario.Spec, 48)
	for i := range points {
		points[i] = scenario.DefaultSpec("empty")
		points[i].VPs = 4
		points[i].Machine.Seed = uint64(i + 1)
	}
	body, err := json.Marshal(map[string]any{"points": points})
	if err != nil {
		t.Fatal(err)
	}

	// The run: after each streamed point line that point's Put has
	// returned, and after the trailer the manifest's has.
	type moment struct {
		synced int64
		acked  int // points 0..acked-1, and the manifest past 48
	}
	var moments []moment
	var run string
	rows := map[string][]byte{}
	hashes := make([]string, len(points))
	dir := t.TempDir()
	boot := func(dir string) (*resultstore.Store, *httptest.Server) {
		st, err := resultstore.Open(dir, "test", 0)
		if err != nil {
			t.Fatal(err)
		}
		return st, httptest.NewServer(serve.New(st, "test", 2).Handler(nil))
	}
	st, ts := boot(dir)
	lines(t, ts.URL+"/v1/runs", body, func(line []byte) {
		var p pointLine
		switch {
		case run == "":
			var h struct{ Run string }
			if err := json.Unmarshal(line, &h); err != nil || h.Run == "" {
				t.Fatalf("header %q: %v", line, err)
			}
			run = h.Run
			return
		case bytes.Contains(line, []byte(`"done":true`)):
			p.Index = len(points)
		default:
			if err := json.Unmarshal(line, &p); err != nil || p.Error != "" || p.Cached {
				t.Fatalf("point line %q: %v", line, err)
			}
			rows[p.Hash], hashes[p.Index] = p.Row, p.Hash
		}
		mu.Lock()
		moments = append(moments, moment{synced, p.Index + 1})
		mu.Unlock()
	})
	ts.Close()
	st.Close()
	path := filepath.Join(dir, "test", resultstore.LogName)
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := records(t, log)
	if len(recs) != len(points)+1 || recs[len(points)].kind != "run" || recs[len(points)].hash != run {
		t.Fatalf("the run wrote %d records, want %d points and then its manifest", len(recs), len(points))
	}
	acked := func(i, prefix int) bool { // whether point i's Put returned while the fsyncs covered at most prefix bytes
		n := 0
		for _, m := range moments {
			if m.synced <= int64(prefix) {
				n = m.acked
			}
		}
		return i < n
	}

	bounds := []int{0}
	for _, r := range recs {
		bounds = append(bounds, r.end)
	}
	states := 0
	for j, b := range bounds {
		type tail struct {
			name  string
			bytes []byte
		}
		tails := []tail{{"nothing", nil}, {"zeros", make([]byte, 512)}}
		if j < len(recs) {
			next := log[b:recs[j].end]
			tails = []tail{{"nothing", nil}, {"cut", next[:len(next)/2]}, {"zeros", make([]byte, len(next))}}
		}
		for _, tail := range tails {
			states++
			t.Run(fmt.Sprintf("boundary%02d-%s", j, tail.name), func(t *testing.T) {
				complete := map[string]bool{} // hashes whose record survives whole
				for _, r := range recs[:j] {
					complete[r.hash] = true
				}
				dir := t.TempDir()
				path := filepath.Join(dir, "test", resultstore.LogName)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(bytes.Clone(log[:b]), tail.bytes...), 0o644); err != nil {
					t.Fatal(err)
				}
				st, ts := boot(dir)
				defer func() { ts.Close(); st.Close() }()

				status := lines(t, ts.URL+"/v1/runs/"+run, nil, func(line []byte) {
					var p pointLine
					if json.Unmarshal(line, &p) == nil && p.Hash != "" && p.Row != nil &&
						(!complete[p.Hash] || !bytes.Equal(p.Row, rows[p.Hash])) {
						t.Errorf("GET lists point %d as present: %s", p.Index, line)
					}
				})
				if want := map[bool]int{true: 200, false: 404}[complete[run]]; status != want {
					t.Errorf("GET of the run answered %d, want %d", status, want)
				}

				seen := 0
				lines(t, ts.URL+"/v1/runs", body, func(line []byte) {
					var p pointLine
					if json.Unmarshal(line, &p) != nil || p.Hash == "" {
						return
					}
					seen++
					switch {
					case p.Error != "" || !bytes.Equal(p.Row, rows[p.Hash]):
						t.Errorf("point %d replayed as %s, want row %s", p.Index, line, rows[p.Hash])
					case p.Cached && !complete[p.Hash]:
						t.Errorf("point %d served from a record Put did not complete", p.Index)
					case !p.Cached && acked(p.Index, b):
						t.Errorf("point %d lost: its Put had returned, and this log holds all the fsyncs covered", p.Index)
					case !p.Cached && complete[p.Hash]:
						t.Errorf("point %d re-executed although its record is whole", p.Index)
					}
				})
				if seen != len(points) {
					t.Fatalf("replay streamed %d points, want %d", seen, len(points))
				}
				if acked(len(points), b) && !complete[run] {
					t.Errorf("the manifest was acknowledged but lost")
				}

				// Records the replay appended after the tail are found again.
				ts.Close()
				st.Close()
				st, ts = boot(dir)
				for _, h := range hashes {
					if got, ok := st.Get("pt", h); !ok || !bytes.Equal(got, rows[h]) {
						t.Errorf("after the replay, point %s: ok=%v row %s", h, ok, got)
					}
				}
			})
		}
	}
	t.Logf("%d crash states over %d records, %d acknowledgements", states, len(recs), len(moments))
}

// counter reads one counter of reg.
func counter(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	t.Fatalf("no counter %s", name)
	return 0
}

// sweepBody is a POST body of n distinct tiny points.
func sweepBody(t *testing.T, n int) []byte {
	t.Helper()
	points := make([]scenario.Spec, n)
	for i := range points {
		points[i] = scenario.DefaultSpec("empty")
		points[i].VPs = 4
		points[i].Machine.Seed = uint64(i + 1)
	}
	body, err := json.Marshal(map[string]any{"points": points})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// A row's fsync holds no simulation slot: while a one-worker server's
// first fsync is held, the second point of a two-point POST executes.
func TestFsyncHoldsNoSimulationSlot(t *testing.T) {
	var fsyncs atomic.Int32
	held := make(chan struct{})
	orig := *resultstore.SyncFile
	*resultstore.SyncFile = func(f *os.File) error {
		if fsyncs.Add(1) == 1 {
			<-held
		}
		return orig(f)
	}
	t.Cleanup(func() { *resultstore.SyncFile = orig })
	reg := obs.NewRegistry()
	serve.EnableObs(reg)
	defer serve.EnableObs(nil)
	st, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(serve.New(st, "test", 1).Handler(nil))
	defer ts.Close()
	release := sync.OnceFunc(func() { close(held) })
	defer release() // before ts.Close, which waits for the handler

	body := sweepBody(t, 2)
	done := make(chan []byte)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- []byte(err.Error())
			return
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- out
	}()
	for deadline := time.Now().Add(5 * time.Second); counter(t, reg, "serve_points_executed_total") < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("point 1 did not execute while point 0's fsync was held (%d fsyncs begun)", fsyncs.Load())
		}
	}
	release()
	if out := <-done; !bytes.Contains(out, []byte(`"executed":2`)) {
		t.Fatalf("the POST answered %s", out)
	}
}

// No executed row reaches a client before its record is durable: each
// cached:false line of a cold sweep arrives when the fsyncs begun so far
// have covered its record.
func TestExecutedRowsArriveDurable(t *testing.T) {
	var mu sync.Mutex
	var synced int64 // the log length the fsyncs so far covered
	orig := *resultstore.SyncFile
	*resultstore.SyncFile = func(f *os.File) error {
		fi, err := f.Stat()
		if err == nil {
			err = orig(f)
		}
		if err == nil {
			mu.Lock()
			synced = max(synced, fi.Size())
			mu.Unlock()
		}
		return err
	}
	t.Cleanup(func() { *resultstore.SyncFile = orig })
	dir := t.TempDir()
	st, err := resultstore.Open(dir, "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ts := httptest.NewServer(serve.New(st, "test", 2).Handler(nil))
	defer ts.Close()

	arrived := map[string]int64{} // an executed point's hash: what the fsyncs covered when its line arrived
	lines(t, ts.URL+"/v1/runs", sweepBody(t, 48), func(line []byte) {
		var p pointLine
		if json.Unmarshal(line, &p) == nil && p.Hash != "" && !p.Cached {
			mu.Lock()
			arrived[p.Hash] = synced
			mu.Unlock()
		}
	})
	log, err := os.ReadFile(filepath.Join(dir, "test", resultstore.LogName))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records(t, log) {
		if cover, ok := arrived[r.hash]; ok && int64(r.end) > cover {
			t.Errorf("point %s arrived when the fsyncs covered %d bytes; its record ends at %d", r.hash, cover, r.end)
		}
		delete(arrived, r.hash)
	}
	if len(arrived) != 0 {
		t.Errorf("%d executed points have no record", len(arrived))
	}
}
