package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"provirt/internal/resultstore"
)

// The hand-appended lines are the bytes json.Encoder writes, for every
// kind of value a line carries: an error or version json must escape,
// a row (json.Marshal output, as the store holds) spliced in, a point
// without one, and a hash written from its binary digest, as the hex
// Hash would be.
func TestLinesAreEncoderOutput(t *testing.T) {
	row, err := json.Marshal(map[string]any{"workload": "empty", "vps": 4, "note": "<x> & \u2028"})
	if err != nil {
		t.Fatal(err)
	}
	var lines []any
	for _, s := range []string{"", "test", "v1.2+dirty.abc", `a "quoted" \ path`, "<b> & </b>", "tab\there\nnewline", "é ü   \x00 \x7f"} {
		lines = append(lines,
			&headerLine{Run: "3f" + s, Points: len(s), Version: s},
			&pointLine{Index: len(s), Hash: "ab12", Error: s},
			&pointLine{Index: 7, Hash: s, Cached: true, Row: row},
		)
	}
	sum := sha256.Sum256([]byte("point"))
	lines = append(lines,
		&pointLine{Index: 9, Cached: true, Row: row, sum: &sum},
		&pointLine{Index: 10, Error: "failed", sum: &digest{}},
		&trailerLine{Done: true, Cached: 3, Executed: 40, Deduped: 5, Failed: 1}, &trailerLine{})
	for _, v := range lines {
		encoded := v
		if l, ok := v.(*pointLine); ok && l.sum != nil {
			hexed := *l
			hexed.Hash, hexed.sum = hex.EncodeToString(l.sum[:]), nil
			encoded = &hexed
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(encoded); err != nil {
			t.Fatal(err)
		}
		var got []byte
		switch l := v.(type) {
		case *headerLine:
			got = l.appendTo(nil)
		case *pointLine:
			got = l.appendTo(nil)
		case *trailerLine:
			got = l.appendTo(nil)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appended %q\n encoder %q", got, want.Bytes())
		}
	}
}

// A full set replaces its least recently used entry; a key put again
// is updated in place.
func TestMemoReplacesTheLeastRecentlyUsed(t *testing.T) {
	m := newMemo(1)
	key := func(i byte) *digest { return &digest{i} }
	for i := byte(1); i <= memoWays; i++ {
		m.put(key(i), key(i))
	}
	m.get(key(1))                           // 2 is now the least recently used
	m.put(key(3), key(33))                  // an update replaces nothing
	m.put(key(memoWays+1), key(memoWays+1)) // replaces 2
	for i := byte(1); i <= memoWays+1; i++ {
		want := *key(i)
		if i == 3 {
			want = *key(33)
		}
		switch sum, ok := m.get(key(i)); {
		case i == 2 && ok:
			t.Error("entry 2 survived; the least recently used was to go")
		case i != 2 && (!ok || sum != want):
			t.Errorf("entry %d: %d %v, want %d", i, sum[0], ok, want[0])
		}
	}
}

// The server's memo is allocated once and never grows: filled to every
// entry it holds about 290 KB.
func TestMemoFootprint(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := newMemo(memoSets)
	for i := range 4 * memoSets * memoWays {
		key := sha256.Sum256(fmt.Appendf(nil, "point %d", i))
		m.put(&key, &key)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d entries hold %d KB", memoSets*memoWays, held>>10)
	if held > 320<<10 {
		t.Errorf("the memo holds %d KB, want under 320", held>>10)
	}
	runtime.KeepAlive(m)
}

// post sends body to h and returns the status and response bytes.
func post(h http.Handler, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// pointDocs are n distinct tiny point documents.
func pointDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		docs[i] = fmt.Sprintf(`{"workload":"empty","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1,"seed":%d}}`, i+1)
	}
	return docs
}

func sweepBody(docs ...string) string { return `{"points":[` + strings.Join(docs, ",") + `]}` }

// A replayed sweep decodes none of its points and answers with the
// bytes it answered before; an edited one decodes only its new point,
// since the manifest of the new run is its point hashes.
func TestKnownPointsAreNotDecoded(t *testing.T) {
	s, _ := newTestServer(t, 2)
	h := s.Handler(nil)
	docs := pointDocs(5)
	body := sweepBody(docs[:4]...)
	if code, data := post(h, body); code != http.StatusOK {
		t.Fatalf("first POST: %d %s", code, data)
	}
	if got := pointsDecoded.Value(); got != 4 {
		t.Fatalf("first POST decoded %d points, want 4", got)
	}
	_, second := post(h, body)
	_, third := post(h, body)
	if got := pointsDecoded.Value(); got != 4 {
		t.Fatalf("replays decoded %d points, want none", got-4)
	}
	if !bytes.Equal(second, third) {
		t.Fatalf("replays differ:\n%s\n%s", second, third)
	}
	_, pts, tr := parseStream(t, third)
	if tr.Cached != 4 || len(pts) != 4 {
		t.Fatalf("replay trailer %+v", tr)
	}

	edited := sweepBody(append(docs[:3:3], docs[4])...)
	code, data := post(h, edited)
	if code != http.StatusOK {
		t.Fatalf("edited POST: %d %s", code, data)
	}
	if got := pointsDecoded.Value() - 4; got != 1 {
		t.Fatalf("edited POST decoded %d points, want its new one", got)
	}
	hdr, _, tr := parseStream(t, data)
	if tr.Executed != 1 || tr.Cached != 3 {
		t.Fatalf("edited POST trailer %+v", tr)
	}
	if _, ok := s.store.Get("run", hdr.Run); !ok {
		t.Fatal("the edited run has no manifest")
	}
	post(h, edited)
	if got := pointsDecoded.Value() - 5; got != 0 {
		t.Fatalf("replaying the edited sweep decoded %d points", got)
	}
}

// A point the memo knows whose row the store no longer holds is
// decoded, executed and stored again.
func TestKnownPointWithoutRowIsDecoded(t *testing.T) {
	s, _ := newTestServer(t, 1)
	h := s.Handler(nil)
	body := sweepBody(pointDocs(1)...)
	_, first := post(h, body)
	fresh, err := resultstore.Open(t.TempDir(), "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	s.store = fresh
	code, again := post(h, body)
	if code != http.StatusOK {
		t.Fatalf("POST: %d %s", code, again)
	}
	if got := pointsDecoded.Value(); got != 2 {
		t.Fatalf("decoded %d points in two POSTs, want 2", got)
	}
	if !bytes.Equal(first, again) {
		t.Fatalf("re-executed response differs:\n%s\n%s", first, again)
	}
	_, pts, _ := parseStream(t, again)
	if _, ok := fresh.Get("pt", pts[0].Hash); !ok {
		t.Fatal("the re-executed row was not stored")
	}
}

// A body with an invalid point is refused alike — status, message and
// point index — whether or not its other points were seen before.
func TestInvalidPointIsRefusedAlikeAmongKnownPoints(t *testing.T) {
	docs := pointDocs(3)
	for _, bad := range []string{
		`{"workload":"empty","vps":-1}`,
		`{"workload":"empty","vps":4,"bogus":1}`,
		`{"workload":"empty","vps":"four"}`,
		`{"workload":"empty","vps":4`,
	} {
		body := sweepBody(docs[0], docs[1], bad, docs[2])
		coldServer, _ := newTestServer(t, 1)
		wantCode, want := post(coldServer.Handler(nil), body)
		warmServer, _ := newTestServer(t, 1)
		warm := warmServer.Handler(nil)
		post(warm, sweepBody(docs...))
		code, got := post(warm, body)
		if code != wantCode || !bytes.Equal(got, want) || code/100 != 4 {
			t.Errorf("%s: %d %s after its points were seen, %d %s before", bad, code, got, wantCode, want)
		}
	}
}

// Concurrent POSTs of overlapping sweeps share one memo, one set small
// enough to replace entries while they run: every response holds each point's one hash
// and row, and each distinct point executes once. Run under -race
// (make race) it checks the memo's locking.
func TestConcurrentOverlappingSweepsShareOneMemo(t *testing.T) {
	s, _ := newTestServer(t, 4)
	s.memo = newMemo(1)
	h := s.Handler(nil)
	docs := pointDocs(12)
	const clients, rounds = 4, 6
	var (
		mu     sync.Mutex
		rows   = map[string]string{} // point document -> "hash row"
		failed error
	)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				window := docs[(c*3+r)%8 : (c*3+r)%8+5]
				code, data := post(h, sweepBody(window...))
				lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
				mu.Lock()
				if code != http.StatusOK || len(lines) != len(window)+2 {
					failed = errors.Join(failed, fmt.Errorf("POST: %d %s", code, data))
				} else {
					for i, doc := range window {
						var p pointLine
						if err := json.NewDecoder(bytes.NewReader(lines[i+1])).Decode(&p); err != nil || len(p.Row) == 0 {
							failed = errors.Join(failed, fmt.Errorf("line %s: %v", lines[i+1], err))
							continue
						}
						got := p.Hash + " " + string(p.Row)
						if want, ok := rows[doc]; ok && want != got {
							failed = errors.Join(failed, fmt.Errorf("point %s: %s, before %s", doc, got, want))
						}
						rows[doc] = got
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if failed != nil {
		t.Fatal(failed)
	}
	if got := pointsExecuted.Value(); got != uint64(len(rows)) {
		t.Fatalf("%d distinct points executed %d times", len(rows), got)
	}
}
