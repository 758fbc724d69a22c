package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"provirt/internal/core"
	"provirt/internal/machine"
	"provirt/internal/resultstore"
	"provirt/internal/scenario"
	"provirt/internal/serve"
)

// serve_sweep drives serve.Handler behind a real net/http server on
// loopback with two closed-loop clients in this process. Set-up fills
// the store with the base sweeps; one repetition is one round of a
// fixed traffic mix, run as four blocks so each finds the cache state
// it is about:
//
//	cold   fresh sweeps: every point executes and is written
//	dedup  both clients POST the same fresh sweep at once
//	warm   replays over a working set that fits the store's memory index
//	       (re-touched first, unsampled, because the disk block evicts it)
//	disk   replays cycling a set larger than the index, in order, so
//	       every point is a file load and checksum
//
// Points are tiny on purpose — the simulator must not dominate — and
// stay at 64 ranks or fewer: a TLSglobals point at 1536 ranks or more
// panics in mem.NewHeap and takes the server down.

const (
	pointsPerSweep = 48
	serveClients   = 2
	serveWorkers   = 2
)

// serveSizes sizes the store and the traffic mix.
type serveSizes struct {
	// storeEntries bounds the store's memory index (0: the default).
	storeEntries int
	// warmSweeps fit the index; diskSweeps exceed it.
	warmSweeps, diskSweeps int
	// Requests per round, by block.
	coldPerRound, warmPerRound, diskPerRound, stormsPerRound int
}

type serveSweep struct {
	sizes  serveSizes
	dir    string
	srv    *http.Server
	served chan error
	client *http.Client
	url    string

	// rng drives point seeds, point order inside a sweep and replay
	// order; only the repetition's own goroutine draws from it.
	rng      *rand.Rand
	pointSeq uint64

	warm, disk [][]byte
	specs      []scenario.Spec // the base sweeps' points, for the codec probes
	diskCursor int
	// rows is every point's row as first served; replays must match it
	// byte for byte. The clients write it concurrently.
	rowsMu sync.Mutex
	rows   map[string][]byte

	cold, dedup, warmed, disked phaseTotals
}

// phaseTotals sums one block over the traced repetitions.
type phaseTotals struct {
	ms        []float64 // per request
	wall      time.Duration
	executed  int
	deduped   int
	storms    int
	hits      uint64
	misses    uint64
	evictions uint64
}

func setupServeSweep(e *env) (instance, error) {
	sz := e.cfg.scale.serve
	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.cfg.outDir, "store-")
	if err != nil {
		return nil, err
	}
	s := &serveSweep{
		sizes: sz, dir: dir,
		rng:    rand.New(rand.NewSource(e.cfg.seed)),
		rows:   map[string][]byte{},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}},
	}
	store, err := resultstore.Open(dir, "bench", sz.storeEntries)
	if err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.url = "http://" + ln.Addr().String() + "/v1/runs"
	s.srv = &http.Server{Handler: serve.New(store, "bench", serveWorkers).Handler(nil)}
	go func() { s.served <- s.srv.Serve(ln) }()

	// Fill the store: the base sweeps execute once here and are only
	// ever replayed afterwards.
	var base [][]byte
	for i := 0; i < sz.warmSweeps+sz.diskSweeps; i++ {
		body, specs := s.freshSweep()
		base = append(base, body)
		s.specs = append(s.specs, specs...)
	}
	s.warm, s.disk = base[:sz.warmSweeps], base[sz.warmSweeps:]
	s.phase(e, "setup.fill", base, expectExecuted)
	return s, nil
}

func (s *serveSweep) close() {
	if s.srv != nil {
		s.srv.Close()
		<-s.served
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// freshSweep generates one sweep of points nobody has posted before.
// The mix is the same in every sweep — workload x method x size, each
// combination once — so every seed does the same amount of work; the
// seed chooses each point's Machine.Seed (its identity in the store)
// and the order of points in the request.
func (s *serveSweep) freshSweep() ([]byte, []scenario.Spec) {
	sizes := []int{4, 8, 12, 16, 24, 32, 48, 64}
	specs := make([]scenario.Spec, 0, pointsPerSweep)
	for _, wl := range []string{"empty", "hello", "jacobi"} {
		for _, method := range []core.Kind{core.KindTLSglobals, core.KindPIEglobals} {
			for k, vps := range sizes {
				s.pointSeq++
				specs = append(specs, scenario.Spec{
					Machine: machine.Config{
						Nodes: 1 + k%4, ProcsPerNode: 1, PEsPerProc: 2,
						// Distinct by construction: a counter above, seed bits below.
						Seed: s.pointSeq<<32 | uint64(s.rng.Uint32()),
					},
					VPs:            vps,
					Method:         method,
					Workload:       wl,
					WorkloadParams: scenario.WorkloadParams{Quick: true},
				})
			}
		}
	}
	s.rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	body, err := json.Marshal(map[string]any{"points": specs})
	if err != nil {
		panic(err) // declarative Specs built right here always encode
	}
	return body, specs
}

// expectation is what a block's responses must look like.
type expectation int

const (
	expectExecuted expectation = iota // fresh points: none cached
	expectCached                      // replays: every point cached and byte-identical
	expectStorm                       // a duplicate pair: checked as a pair by the caller
)

// reply is one POST's outcome as the client saw it: the request is one
// operation, each point line another.
type reply struct {
	ms       float64
	ops      int
	failures []string
	executed int
	deduped  int
}

func (r *reply) check(ok bool, format string, args ...any) {
	r.ops++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// post sends one sweep and checks the streamed response line by line.
func (s *serveSweep) post(body []byte, want expectation) reply {
	var r reply
	t := time.Now()
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		}
	}
	r.ms = ms(time.Since(t))

	// A header line, one line per point, a trailer.
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	var trailer struct {
		Done                              bool
		Cached, Executed, Deduped, Failed int
	}
	if err == nil && len(lines) != pointsPerSweep+2 {
		err = fmt.Errorf("response has %d lines, want %d", len(lines), pointsPerSweep+2)
	}
	if err == nil {
		err = json.Unmarshal(lines[len(lines)-1], &trailer)
	}
	if err == nil && (!trailer.Done || trailer.Failed > 0) {
		err = fmt.Errorf("trailer done=%v failed=%d", trailer.Done, trailer.Failed)
	}
	r.check(err == nil, "POST: %v", err)
	if err != nil {
		return r
	}
	r.executed, r.deduped = trailer.Executed, trailer.Deduped

	for _, raw := range lines[1 : len(lines)-1] {
		var pt struct {
			Hash   string
			Cached bool
			Row    json.RawMessage
			Error  string
		}
		if err := json.Unmarshal(raw, &pt); err != nil || pt.Error != "" || len(pt.Row) == 0 {
			r.check(false, "point line %s (decode error: %v)", bytes.TrimSpace(raw), err)
			continue
		}
		same := s.sameRow(pt.Hash, pt.Row)
		switch want {
		case expectExecuted:
			r.check(!pt.Cached && same, "fresh point %s came back cached or changed", pt.Hash)
		case expectCached:
			r.check(pt.Cached && same, "replayed point %s not cached or not byte-identical", pt.Hash)
		case expectStorm:
			r.check(same, "storm point %s differs between the two responses", pt.Hash)
		}
	}
	return r
}

// sameRow records a point's row the first time it is seen and reports
// whether row equals the recorded one.
func (s *serveSweep) sameRow(hash string, row []byte) bool {
	s.rowsMu.Lock()
	defer s.rowsMu.Unlock()
	first, seen := s.rows[hash]
	if !seen {
		s.rows[hash] = append([]byte(nil), row...)
		return true
	}
	return bytes.Equal(first, row)
}

// phase has the clients work through bodies, each taking the next
// request when its previous one completes, and returns the replies in
// request order.
func (s *serveSweep) phase(e *env, name string, bodies [][]byte, want expectation) ([]reply, time.Duration) {
	span := e.tr.begin(e.root, "phase."+name)
	replies := make([]reply, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(bodies) {
					return
				}
				rs := e.tr.begin(span, "request")
				replies[i] = s.post(bodies[i], want)
				e.tr.end(rs)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(begin)
	e.tr.end(span)
	for _, r := range replies {
		e.attempted += r.ops
		e.failed += len(r.failures)
		for _, f := range r.failures {
			if len(e.failures) < 8 {
				e.failures = append(e.failures, name+": "+f)
			}
		}
	}
	return replies, wall
}

// counters reads the obs accessors the server and store export; they
// read 0 until the traced pass switches obs on.
type counters struct{ hits, misses, evictions uint64 }

func readCounters() counters {
	return counters{serve.CacheHits(), serve.CacheMisses(), resultstore.Evictions()}
}

// add folds one block of a traced repetition into the totals.
func (p *phaseTotals) add(e *env, replies []reply, wall time.Duration, before counters) {
	if e.tr == nil {
		return
	}
	after := readCounters()
	p.wall += wall
	p.hits += after.hits - before.hits
	p.misses += after.misses - before.misses
	p.evictions += after.evictions - before.evictions
	for _, r := range replies {
		p.ms = append(p.ms, r.ms)
		p.executed += r.executed
		p.deduped += r.deduped
	}
}

func (s *serveSweep) rep(e *env) {
	sz := s.sizes

	var fresh [][]byte
	for i := 0; i < sz.coldPerRound; i++ {
		body, _ := s.freshSweep()
		fresh = append(fresh, body)
	}
	c := readCounters()
	replies, wall := s.phase(e, "cold", fresh, expectExecuted)
	s.cold.add(e, replies, wall, c)

	for i := 0; i < sz.stormsPerRound; i++ {
		body, _ := s.freshSweep()
		c = readCounters()
		replies, wall = s.phase(e, "dedup", [][]byte{body, body}, expectStorm)
		s.dedup.add(e, replies, wall, c)
		if e.tr != nil {
			s.dedup.storms++
		}
		// Exactly-once execution: between them the two responses report
		// every point executed once, the rest joined or cached.
		executed := replies[0].executed + replies[1].executed
		e.op(executed == pointsPerSweep, "dedup storm executed %d points, want %d", executed, pointsPerSweep)
	}

	s.phase(e, "rewarm", s.warm, expectCached)

	order := make([][]byte, sz.warmPerRound)
	for i := range order {
		order[i] = s.warm[s.rng.Intn(len(s.warm))]
	}
	c = readCounters()
	replies, wall = s.phase(e, "warm", order, expectCached)
	s.warmed.add(e, replies, wall, c)

	order = make([][]byte, sz.diskPerRound)
	for i := range order {
		order[i] = s.disk[s.diskCursor%len(s.disk)]
		s.diskCursor++
	}
	c = readCounters()
	replies, wall = s.phase(e, "disk", order, expectCached)
	s.disked.add(e, replies, wall, c)
}

func (s *serveSweep) samples(n map[string]int) {
	n["cold_req"], n["dedup_req"] = len(s.cold.ms), len(s.dedup.ms)
	n["warm_req"], n["disk_req"] = len(s.warmed.ms), len(s.disked.ms)
}

func (s *serveSweep) layer(e *env, m map[string]float64, seg segment) {
	m["serve.cold_points_per_s"] = float64(len(s.cold.ms)*pointsPerSweep) / s.cold.wall.Seconds()
	m["serve.cold_req_ms"] = median(s.cold.ms)
	m["serve.warm_req_p50_ms"] = median(s.warmed.ms)
	if p99, beyond := percentile(s.warmed.ms, 99); beyond >= 10 {
		m["serve.warm_req_p99_ms"] = p99
	}
	m["serve.disk_req_p50_ms"] = median(s.disked.ms)
	if total := s.warmed.hits + s.warmed.misses + s.disked.hits + s.disked.misses; total > 0 {
		m["serve.cache_hit_share"] = float64(s.warmed.hits+s.disked.hits) / float64(total)
	}
	m["resultstore.evictions_warm"] = float64(s.warmed.evictions)
	m["resultstore.evictions_disk"] = float64(s.disked.evictions)
	m["serve.dedup_join_share"] = float64(s.dedup.deduped) / float64(s.dedup.storms*pointsPerSweep)
	m["serve.dedup_executed_per_storm"] = float64(s.dedup.executed) / float64(s.dedup.storms)
	m["serve.queue_depth_highwater"] = obsValues(e.reg)["serve_queue_depth_highwater"]
	m["serve.point_errors"] = seg.obs["serve_point_errors_total"]
	// What the traffic mix promises about cache state, checked where
	// the counters exist.
	e.op(m["serve.cache_hit_share"] == 1, "warm and disk replays hit the cache at %.4f, want 1", m["serve.cache_hit_share"])
	e.op(s.warmed.evictions == 0 && s.disked.evictions > 0,
		"evictions: %d in warm (want 0), %d in disk (want > 0)", s.warmed.evictions, s.disked.evictions)

	err := s.codecProbes(m)
	if err == nil {
		err = storeProbes(s.dir, m)
	}
	e.op(err == nil, "codec and store probes: %v", err)
	perPoint := m["scenario.decode_us"] + m["scenario.validate_us"] + m["scenario.hash_us"] + m["scenario.encode_us"] + m["resultstore.get_mem_us"]
	m["serve.warm_overhead_ms"] = m["serve.warm_req_p50_ms"] - (pointsPerSweep*perPoint+m["resultstore.put_us"])/1000
}

// codecProbes times what every POST does to each of its points before
// the first cache probe — decode, validate, hash — and the re-encode
// the run manifest costs afterwards.
func (s *serveSweep) codecProbes(m map[string]float64) error {
	specs := s.specs
	if len(specs) > 480 {
		specs = specs[:480]
	}
	var decode, validate, hash, encode []float64
	for i := range specs {
		t := time.Now()
		doc, err := json.Marshal(specs[i])
		encode = append(encode, us(time.Since(t)))
		if err != nil {
			return err
		}
		var sp scenario.Spec
		t = time.Now()
		err = json.Unmarshal(doc, &sp)
		decode = append(decode, us(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		err = sp.Validate()
		validate = append(validate, us(time.Since(t)))
		if err != nil {
			return err
		}
		t = time.Now()
		_, err = sp.Hash()
		hash = append(hash, us(time.Since(t)))
		if err != nil {
			return err
		}
	}
	m["scenario.decode_us"] = median(decode)
	m["scenario.validate_us"] = median(validate)
	m["scenario.hash_us"] = median(hash)
	m["scenario.encode_us"] = median(encode)
	return nil
}

// storeProbes times the result store alone: durable writes, memory
// index reads, and reads through a second Store over the same
// directory, whose empty index sends every read to disk.
func storeProbes(dir string, m map[string]float64) error {
	const entries = 256
	st, err := resultstore.Open(dir, "probe", 0)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte("x"), 256) // about one row
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	var put, getMem, getDisk []float64
	for i := 0; i < entries; i++ {
		t := time.Now()
		if err := st.Put("pt", key(i), payload); err != nil {
			return err
		}
		put = append(put, us(time.Since(t)))
	}
	timeGets := func(st *resultstore.Store, out *[]float64) error {
		for i := 0; i < entries; i++ {
			t := time.Now()
			_, ok := st.Get("pt", key(i))
			*out = append(*out, us(time.Since(t)))
			if !ok {
				return fmt.Errorf("entry %d missing", i)
			}
		}
		return nil
	}
	if err := timeGets(st, &getMem); err != nil {
		return err
	}
	cold, err := resultstore.Open(dir, "probe", 0)
	if err != nil {
		return err
	}
	if err := timeGets(cold, &getDisk); err != nil {
		return err
	}
	m["resultstore.put_us"] = median(put)
	m["resultstore.get_mem_us"] = median(getMem)
	m["resultstore.get_disk_us"] = median(getDisk)
	return nil
}
