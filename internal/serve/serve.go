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
//     whose bytes the server has seen is looked up by their SHA-256,
//     and its content hash stays binary until it is written, so a
//     replay allocates the same few times at any size.
//
// Endpoints:
//
//	POST /v1/runs          {"points":[Spec,...]} or {"spec":Spec};
//	                       streams NDJSON — a header line, one line per
//	                       point (in index order; while a point executes,
//	                       the lines ready so far are flushed whenever
//	                       the next one waits for its point), and a
//	                       trailer. The body is read once as it streams
//	                       (scenario.DecodeRequest), split into each
//	                       point's byte span: a span the memo does not
//	                       resolve is decoded, lowered and validated as
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
// server's semaphore: each request's leaders take a slot apiece for the
// simulation and its encoding only. A row's store write and fsync run
// after the slot is released, and the row reaches no one until its
// record is durable.
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
	// sum, when set, is the hash in binary, and the line is written with
	// it in place of Hash.
	sum *digest
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

// posted is one POST's state, recycled across requests with its
// slices: its points as the probe saw them and their decoded Specs,
// both in index order.
type posted struct {
	s      *Server
	points []postedPoint
	specs  []*scenario.Spec // nil where the probe resolved the point
}

// postedStates recycles posted states.
var postedStates = sync.Pool{New: func() any { return new(posted) }}

// release returns p to postedStates, dropping its references to rows,
// flights and Specs.
func (p *posted) release() {
	clear(p.points)
	clear(p.specs)
	p.s, p.points, p.specs = nil, p.points[:0], p.specs[:0]
	postedStates.Put(p)
}

// postedPoint is one point of a POST: what its bytes resolved to, then
// how it is answered.
type postedPoint struct {
	key digest // SHA-256 of the point's bytes
	sum digest // its content hash: Spec.Hash, in binary
	// hash is sum in hex, set only for a point the probe did not resolve:
	// the key it is looked up, claimed and run under.
	hash string
	// row is the stored row of a cached point; f the flight of one that
	// executes, joined (not led) by this request if joined is set.
	row    []byte
	f      *flight
	joined bool
}

// probe resolves a point whose bytes the memo knows and whose row the
// store still holds; any other point is decoded (scenario.Probe).
func (p *posted) probe(_ int, point []byte) bool {
	p.points = append(p.points, postedPoint{key: sha256.Sum256(point)})
	pt := &p.points[len(p.points)-1]
	var ok bool
	if pt.sum, ok = p.s.memo.get(&pt.key); ok {
		var h [2 * sha256.Size]byte
		hex.Encode(h[:], pt.sum[:])
		pt.row, ok = p.s.store.Lookup("pt", h[:])
	}
	if !ok {
		pointsDecoded.Inc()
	}
	return ok
}

// leader is a point this request executes.
type leader struct {
	hash string
	sp   *scenario.Spec
	f    *flight
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
	specs, err := scenario.AppendRequest(req.specs, http.MaxBytesReader(w, r.Body, MaxBodyBytes), req.probe)
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
	req.specs = specs
	points := req.points
	for i, sp := range specs {
		if sp == nil {
			continue
		}
		pt := &points[i]
		if pt.hash, err = sp.Hash(); err != nil {
			point := i
			writeError(w, http.StatusBadRequest, errorDoc{Error: err.Error(), Point: &point})
			return
		}
		hex.Decode(pt.sum[:], []byte(pt.hash)) // a hash is 64 hex digits
		s.memo.put(&pt.key, &pt.sum)
	}
	runSum := runHashOf(points)
	runHash := hex.EncodeToString(runSum[:])

	// Resolve each point: cached rows are ready now; the rest either
	// join an in-flight execution or become its leader. Leaders run on
	// the shared bounded pool in the background while this handler
	// streams results in index order.
	var leaders []leader
	executing := false // some point is led or joined
	for i := range points {
		pt := &points[i]
		if specs[i] == nil { // the probe found its row
			cacheHits.Inc()
			continue
		}
		var ok bool
		if pt.row, ok = s.store.Get("pt", pt.hash); ok {
			cacheHits.Inc()
			continue
		}
		cacheMisses.Inc()
		executing = true
		f, lead := s.claim(pt.hash)
		pt.f, pt.joined = f, !lead
		if lead {
			leaders = append(leaders, leader{hash: pt.hash, sp: specs[i], f: f})
		} else {
			dedupJoins.Inc()
		}
	}
	if len(leaders) > 0 {
		go s.runLeaders(leaders)
	}

	// While a point executes, the header is flushed at once, and the lines
	// buffered so far before the handler waits for a flight; a fully
	// cached response is sent when the handler returns.
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := newLines(w)
	defer out.close()
	out.b = (&headerLine{Run: runHash, Points: len(points), Version: s.version}).appendTo(out.b)
	out.sync(executing)

	var trailer trailerLine
	trailer.Done = true
	for i := range points {
		pt := &points[i]
		line := pointLine{Index: i, sum: &pt.sum}
		if f := pt.f; f == nil {
			trailer.Cached++
			line.Cached = true
			line.Row = pt.row
		} else {
			select {
			case <-f.done:
			default:
				out.sync(true)
				<-f.done
			}
			switch {
			case f.stored:
				trailer.Cached++
				line.Cached = true
			case pt.joined:
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
		out.sync(false)
	}
	if trailer.Failed == 0 {
		s.putManifest(runHash, points)
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
// the server-wide semaphore for each leader in index order and simulates
// the point while it holds the slot, so total concurrent simulations
// across every request never exceed the pool size; joiners and cache
// hits take no slot. The row's Put waits for its fsync after the slot
// is released, so the slot runs the next simulation meanwhile and puts
// that overlap share an fsync. The flight completes, and stays claimable
// until then, only once its row is durable and indexed: no client,
// joiner or store probe sees a row a crash could lose, and no point runs
// twice.
func (s *Server) runLeaders(leaders []leader) {
	for _, l := range leaders {
		queueHighwater.SetMax(s.queued.Add(1))
		s.sem <- struct{}{}
		go func() {
			f := l.f
			f.payload, f.stored, f.err = s.lead(l.hash, l.sp)
			<-s.sem
			s.queued.Add(-1)
			if f.err == nil && !f.stored {
				s.put("pt", l.hash, f.payload)
			}
			s.mu.Lock()
			delete(s.inflight, l.hash)
			s.mu.Unlock()
			close(f.done)
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
// It stores nothing: runLeaders puts the row once the slot is free.
func (s *Server) lead(hash string, sp *scenario.Spec) (payload []byte, stored bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			pointPanics.Inc()
			payload, err = nil, &panicError{value: r}
		}
	}()
	return s.executePoint(hash, sp)
}

// executePoint runs one Spec and encodes its row. The leader re-checks
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
	payload, err = json.Marshal(row)
	return payload, false, err
}

// put stores a row or a manifest. A failed Put leaves the row good: the
// next identical request just re-executes. It is counted, since a
// persistently failing store turns the cache off silently otherwise.
func (s *Server) put(kind, hash string, payload []byte) {
	if err := s.store.Put(kind, hash, payload); err != nil {
		storePutErrors.Inc()
	}
}

// putManifest persists the run-level record that lets GET
// /v1/runs/{hash} replay the whole sweep: its point hashes. The run hash
// is over them, so a stored manifest already lists these points and only
// a run's first completion writes one. Get verifies the checksum, so a
// corrupt or lost manifest is written again.
func (s *Server) putManifest(runHash string, points []postedPoint) {
	if _, ok := s.store.Get("run", runHash); ok {
		return
	}
	m := runManifest{Points: make([]string, len(points))}
	for i := range points {
		m.Points[i] = hex.EncodeToString(points[i].sum[:])
	}
	if payload, err := json.Marshal(m); err == nil {
		s.put("run", runHash, payload)
	}
}

// runHashOf derives the run's content address from its point hashes:
// the SHA-256 of a tag line and then each point's hash in hex, a line
// apiece. The tag keeps run and point addresses from ever colliding
// even though they also live in separate store namespaces.
func runHashOf(points []postedPoint) (sum digest) {
	h := sha256.New()
	var line [2*sha256.Size + 1]byte
	copy(line[:], "provirt-run 1\n")
	h.Write(line[:len("provirt-run 1\n")])
	line[len(line)-1] = '\n'
	for i := range points {
		hex.Encode(line[:], points[i].sum[:])
		h.Write(line[:])
	}
	h.Sum(sum[:0])
	return sum
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
