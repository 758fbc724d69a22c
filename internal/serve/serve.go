// Package serve turns the batch experiment harness into a long-running
// service: an HTTP/JSON API that accepts declarative scenario.Spec
// documents, executes them on a bounded worker pool, and caches every
// result content-addressed in a resultstore.
//
// The design leans entirely on determinism: a run is a pure function
// of its Spec, so Spec.Hash plus the code version fully identifies the
// output. That makes three things cheap that are usually hard:
//
//   - Caching: a repeated Spec is served from the store byte-for-byte,
//     no simulation executed.
//   - Deduplication: identical in-flight Specs collapse
//     singleflight-style onto one execution; joiners wait for the
//     leader's result instead of queueing duplicate work.
//   - Incremental sweeps: a request is a list of points, each hashed
//     independently, so editing one point of a sweep re-runs exactly
//     the changed point, and replaying a sweep decodes none: a point
//     whose bytes the server has seen is looked up by their SHA-256.
//
// Endpoints:
//
//	POST /v1/runs          {"points":[Spec,...]} or {"spec":Spec};
//	                       streams NDJSON — a header line, one line per
//	                       point (in index order, written as soon as
//	                       the point and all before it are done), and a
//	                       trailer. The body is decoded as it streams
//	                       (scenario.DecodeRequest): each point the memo
//	                       does not resolve is lowered and validated as
//	                       it is read, and the first invalid one, or the
//	                       one past scenario.MaxPoints, ends the read with
//	                       a structured 400 carrying
//	                       scenario.ValidationError fields. Points run
//	                       through Spec.Execute, so fault and churn
//	                       points run under the supervisor.
//	GET  /v1/runs/{hash}   replays a completed run from the store, whose
//	                       manifest is the run's point hashes, in order.
//	GET  /v1/experiments   lists the harness experiment registry and
//	                       the workload registry with example Specs.
//
// Concurrency discipline: the server's mutex guards only the in-flight
// map, and the memo's only its table; simulation, marshaling, and store
// I/O all happen outside them.
// Total concurrent simulations across all requests are bounded by the
// server's semaphore: each request's leaders take a slot apiece.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"provirt/internal/harness"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
)

// MaxBodyBytes bounds one request body: past it the read stops and the
// request is a 413. A sweep past scenario.MaxPoints is a 400, refused
// as its first extra point arrives.
const MaxBodyBytes = 8 << 20

// Server executes and caches Spec runs.
type Server struct {
	store   *resultstore.Store
	version string

	// sem holds one slot per simulation running; queued counts them plus
	// the requests waiting for one.
	sem    chan struct{}
	queued atomic.Int64

	// mu guards only inflight; everything else is channels/atomics.
	mu       sync.Mutex
	inflight map[string]*flight

	// memo maps request points' bytes to their content hashes.
	memo *memo
}

// flight is one in-progress point execution; joiners block on done and
// read payload/err after it closes. stored reports that the leader found
// the row already persisted and executed nothing.
type flight struct {
	done    chan struct{}
	payload []byte
	stored  bool
	err     error
}

// New returns a server over the store. workers bounds concurrent
// simulations across all requests (<= 0 selects GOMAXPROCS); version
// is reported in responses (pass resultstore.CodeVersion()).
func New(store *resultstore.Store, version string, workers int) *Server {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Server{
		store:    store,
		version:  version,
		sem:      make(chan struct{}, workers),
		inflight: make(map[string]*flight),
		memo:     newMemo(memoSets),
	}
}

// Handler mounts the /v1 API. fallback, if non-nil, serves every
// other path — cmd/privbench passes the obs metrics handler so one
// listener serves both the API and /metrics, /debug/pprof.
func (s *Server) Handler(fallback http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handlePostRuns)
	mux.HandleFunc("GET /v1/runs/{hash}", s.handleGetRun)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	if fallback != nil {
		mux.Handle("/", fallback)
	}
	return mux
}

// --- request/response documents ---

// errorDoc is every non-streaming error body.
type errorDoc struct {
	Error string `json:"error"`
	// Point is the index of the offending sweep point, when one is
	// identifiable.
	Point *int `json:"point,omitempty"`
	// Fields carries scenario.ValidationError's per-field problems.
	Fields []scenario.FieldError `json:"fields,omitempty"`
}

// headerLine opens every run stream.
type headerLine struct {
	Run     string `json:"run"`
	Points  int    `json:"points"`
	Version string `json:"version"`
}

// pointLine reports one completed point. Row is the stored payload
// verbatim, so identical Specs yield byte-identical row payloads
// whether computed or cached; Cached is response metadata and lives
// outside Row on purpose.
type pointLine struct {
	Index  int             `json:"index"`
	Hash   string          `json:"hash"`
	Cached bool            `json:"cached"`
	Row    json.RawMessage `json:"row,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// trailerLine closes the stream with the request's cache accounting.
type trailerLine struct {
	Done     bool `json:"done"`
	Cached   int  `json:"cached"`
	Executed int  `json:"executed"`
	Deduped  int  `json:"deduped"`
	Failed   int  `json:"failed"`
}

// runManifest is the stored record of a completed run: its point
// hashes, in index order. The rows live under their own keys.
type runManifest struct {
	Points []string `json:"points"`
}

func writeError(w http.ResponseWriter, status int, doc errorDoc) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(doc)
}

// --- POST /v1/runs ---

// posted is one POST's points as its probe saw them, in index order.
type posted struct {
	s      *Server
	points []postedPoint
}

// postedStates recycles posted's slices across requests.
var postedStates = sync.Pool{New: func() any { return new(posted) }}

// release returns p to postedStates, dropping its references to rows.
func (p *posted) release() {
	clear(p.points)
	p.s, p.points = nil, p.points[:0]
	postedStates.Put(p)
}

type postedPoint struct {
	key digest // SHA-256 of the point's bytes
	// Set when the probe resolved the point: its content hash and
	// stored row.
	hash string
	row  []byte
}

// probe resolves a point whose bytes the memo knows and whose row the
// store still holds; any other point is decoded (scenario.Probe).
func (p *posted) probe(_ int, point []byte) bool {
	pt := postedPoint{key: sha256.Sum256(point)}
	sum, ok := p.s.memo.get(&pt.key)
	if ok {
		var h [2 * sha256.Size]byte
		hex.Encode(h[:], sum[:])
		hash := string(h[:])
		if pt.row, ok = p.s.store.Get("pt", hash); ok {
			pt.hash = hash
		}
	}
	if !ok {
		pointsDecoded.Inc()
	}
	p.points = append(p.points, pt)
	return ok
}

func (s *Server) handlePostRuns(w http.ResponseWriter, r *http.Request) {
	began := time.Now()
	requests.Inc()
	defer func() {
		requestLatency.Observe(uint64(time.Since(began).Microseconds()))
	}()

	// The body `privbench -spec` takes, through the same decoder: every
	// point is lowered and validated as it streams in, so a bad sweep is
	// refused whole, with the offending point named, before any work
	// starts. A point the probe resolves is not decoded at all.
	req := postedStates.Get().(*posted)
	defer req.release()
	req.s = s
	points, err := scenario.DecodeRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes), req.probe)
	if err != nil {
		status, doc := http.StatusBadRequest, errorDoc{Error: err.Error()}
		var perr *scenario.PointError
		var verr *scenario.ValidationError
		switch {
		case errors.As(err, new(*http.MaxBytesError)):
			status = http.StatusRequestEntityTooLarge
		case errors.As(err, &perr):
			doc.Point, doc.Error = &perr.Index, perr.Err.Error()
			if errors.As(perr.Err, &verr) {
				doc.Error, doc.Fields = "invalid spec", verr.Errs
			}
		}
		writeError(w, status, doc)
		return
	}
	hashes := make([]string, len(points))
	for i, sp := range points {
		if sp == nil {
			hashes[i] = req.points[i].hash
			continue
		}
		if hashes[i], err = sp.Hash(); err != nil {
			point := i
			writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error(), Point: &point})
			return
		}
		var sum digest
		hex.Decode(sum[:], []byte(hashes[i])) // a hash is 64 hex digits
		s.memo.put(&req.points[i].key, &sum)
	}
	runHash := runHashOf(hashes)

	// Resolve each point: cached rows are ready now; the rest either
	// join an in-flight execution or become its leader. Leaders run on
	// the shared bounded pool in the background while this handler
	// streams results in index order.
	type resolution struct {
		cached  bool
		joined  bool
		flight  *flight
		payload []byte
	}
	res := make([]resolution, len(points))
	var leaders []int
	executing := 0 // points led or joined and not yet written
	for i, h := range hashes {
		p, ok := req.points[i].row, points[i] == nil
		if !ok {
			p, ok = s.store.Get("pt", h)
		}
		if ok {
			cacheHits.Inc()
			res[i] = resolution{cached: true, payload: p}
			continue
		}
		cacheMisses.Inc()
		executing++
		f, leader := s.claim(h)
		res[i] = resolution{joined: !leader, flight: f}
		if leader {
			leaders = append(leaders, i)
		} else {
			dedupJoins.Inc()
		}
	}
	if len(leaders) > 0 {
		flights := make([]*flight, len(leaders))
		for j, i := range leaders {
			flights[j] = res[i].flight
		}
		go s.runLeaders(points, hashes, flights, leaders)
	}

	// While a point executes, each line is flushed once it and all before
	// it are ready; a fully cached response is sent when the handler returns.
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newLines(w)
	defer out.close()
	out.b = (&headerLine{Run: runHash, Points: len(points), Version: s.version}).appendTo(out.b)
	out.sync(executing > 0)

	var trailer trailerLine
	trailer.Done = true
	for i := range points {
		line := pointLine{Index: i, Hash: hashes[i]}
		switch {
		case res[i].cached:
			trailer.Cached++
			line.Cached = true
			line.Row = res[i].payload
		default:
			f := res[i].flight
			<-f.done
			switch {
			case f.stored:
				trailer.Cached++
				line.Cached = true
			case res[i].joined:
				trailer.Deduped++
			default:
				trailer.Executed++
			}
			if f.err != nil {
				trailer.Failed++
				pointErrors.Inc()
				line.Error = f.err.Error()
			} else {
				line.Row = f.payload
			}
		}
		out.b = line.appendTo(out.b)
		out.sync(executing > 0)
		if !res[i].cached {
			executing--
		}
	}
	if trailer.Failed == 0 {
		s.putManifest(runHash, hashes)
	}
	out.b = trailer.appendTo(out.b)
}

// claim registers interest in a point hash: the first caller becomes
// the leader (responsible for executing and completing the flight),
// later callers join. Critical section is map access only.
func (s *Server) claim(hash string) (f *flight, leader bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[hash]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	s.inflight[hash] = f
	return f, true
}

// runLeaders executes this request's leader points. It takes a slot of
// the server-wide semaphore for each leader in index order and runs the
// leader while it holds the slot, so total concurrent simulations
// across every request never exceed the pool size; joiners and cache
// hits take no slot. leaders holds the point indices; flights the
// matching claimed flights, in the same order.
func (s *Server) runLeaders(points []*scenario.Spec, hashes []string, flights []*flight, leaders []int) {
	for j, i := range leaders {
		queueHighwater.SetMax(s.queued.Add(1))
		s.sem <- struct{}{}
		go func() {
			f := flights[j]
			f.payload, f.stored, f.err = s.lead(hashes[i], points[i])
			s.mu.Lock()
			delete(s.inflight, hashes[i])
			s.mu.Unlock()
			close(f.done)
			<-s.sem
			s.queued.Add(-1)
		}()
	}
}

// panicError is the error of a flight whose execution panicked.
type panicError struct{ value any }

func (e *panicError) Error() string { return fmt.Sprintf("point execution panicked: %v", e.value) }

// lead is executePoint behind a recover: Execute reaches the world
// builder, the supervisor and the reshape placements, and a panic under
// them must cost one point, not the server — the flight completes with
// a *panicError, so its joiners are released and the pool slot returns.
func (s *Server) lead(hash string, sp *scenario.Spec) (payload []byte, stored bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			pointPanics.Inc()
			payload, err = nil, &panicError{value: r}
		}
	}()
	return s.executePoint(hash, sp)
}

// executePoint runs one Spec and stores its row. The leader re-checks
// the store first: a flight that finished between this request's
// store probe and its claim already persisted the row, and the point is
// then a cache hit (stored), not an execution.
func (s *Server) executePoint(hash string, sp *scenario.Spec) (payload []byte, stored bool, err error) {
	if p, ok := s.store.Get("pt", hash); ok {
		cacheHits.Inc()
		return p, true, nil
	}
	pointsExecuted.Inc()
	row, _, err := sp.Execute()
	if err != nil {
		return nil, false, err
	}
	if payload, err = json.Marshal(row); err != nil {
		return nil, false, err
	}
	if err := s.store.Put("pt", hash, payload); err != nil {
		// The row is still good; the next identical request just
		// re-executes. Count it — a persistently failing store turns
		// the cache off silently otherwise.
		storePutErrors.Inc()
	}
	return payload, false, nil
}

// putManifest persists the run-level record that lets GET
// /v1/runs/{hash} replay the whole sweep: its point hashes. The run hash
// is over them, so a stored manifest already lists these points and only
// a run's first completion writes one. Get verifies the checksum, so a
// corrupt or lost manifest is written again.
func (s *Server) putManifest(runHash string, hashes []string) {
	if _, ok := s.store.Get("run", runHash); ok {
		return
	}
	payload, err := json.Marshal(runManifest{Points: hashes})
	if err != nil {
		return
	}
	if err := s.store.Put("run", runHash, payload); err != nil {
		storePutErrors.Inc()
	}
}

// runHashOf derives the run's content address from its point hashes.
// The leading tag keeps run and point addresses from ever colliding
// even though they also live in separate store namespaces.
func runHashOf(pointHashes []string) string {
	const tag = "provirt-run 1\n"
	pre := append(make([]byte, 0, len(tag)+65*len(pointHashes)), tag...) // 64 hex digits and a newline each
	for _, p := range pointHashes {
		pre = append(append(pre, p...), '\n')
	}
	sum := sha256.Sum256(pre)
	return hex.EncodeToString(sum[:])
}

// --- GET /v1/runs/{hash} ---

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	requests.Inc()
	hash := r.PathValue("hash")
	payload, ok := s.store.Get("run", hash)
	if !ok {
		writeError(w, http.StatusNotFound, errorDoc{Error: "unknown run (not computed under this code version, or never completed)"})
		return
	}
	points, err := manifestPoints(payload)
	if err != nil {
		writeError(w, http.StatusInternalServerError, errorDoc{Error: "stored manifest unreadable"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newLines(w)
	defer out.close()
	out.b = (&headerLine{Run: hash, Points: len(points), Version: s.version}).appendTo(out.b)
	trailer := trailerLine{Done: true}
	for i, ph := range points {
		line := pointLine{Index: i, Hash: ph, Cached: true}
		if row, ok := s.store.Get("pt", ph); ok {
			cacheHits.Inc()
			trailer.Cached++
			line.Row = row
		} else {
			// The point row was lost (corrupt file); the run is listed
			// but this point must be re-POSTed.
			trailer.Failed++
			line.Cached = false
			line.Error = "row missing from store; re-POST the spec to recompute"
		}
		out.b = line.appendTo(out.b)
		out.sync(false)
	}
	out.b = trailer.appendTo(out.b)
}

// manifestPoints reads a stored manifest's point hashes.
func manifestPoints(manifest []byte) ([]string, error) {
	var m runManifest
	err := json.Unmarshal(manifest, &m)
	return m.Points, err
}

// --- GET /v1/experiments ---

// workloadDoc describes one registered workload plus a ready-to-POST
// example Spec.
type workloadDoc struct {
	Name        string        `json:"name"`
	Description string        `json:"description"`
	DefaultSpec scenario.Spec `json:"default_spec"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	requests.Inc()
	var out struct {
		Version     string               `json:"version"`
		Experiments []harness.Experiment `json:"experiments"`
		Workloads   []workloadDoc        `json:"workloads"`
	}
	out.Version, out.Experiments = s.version, harness.Experiments()
	for _, wl := range scenario.Workloads() {
		out.Workloads = append(out.Workloads, workloadDoc{
			Name: wl.Name, Description: wl.Description, DefaultSpec: scenario.DefaultSpec(wl.Name),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
