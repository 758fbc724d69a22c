package main

import (
	"sync"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the root's parent, and
// what a nil tracer hands out).
type spanID int

// span is one call the benchmark made into a layer. Spans are recorded
// from the benchmark's side of each public function; spans inside the
// program are a later change.
type span struct {
	ID      spanID  `json:"id"`
	Parent  spanID  `json:"parent"`
	Rep     int     `json:"rep"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, which is how the timed pass runs the same code.
type tracer struct {
	t0 time.Time
	mu sync.Mutex // the serve clients record concurrently
	sp []span
	// reps counts root spans, one per repetition.
	reps int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// begin opens a span under parent. The repetition id is inherited from
// the parent, so every span of one repetition shares it.
func (t *tracer) begin(parent spanID, name string) spanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{ID: spanID(len(t.sp) + 1), Parent: parent, Name: name, StartUs: t.now()}
	if parent == 0 {
		t.reps++
		s.Rep = t.reps
	} else {
		s.Rep = t.sp[parent-1].Rep
	}
	t.sp = append(t.sp, s)
	return s.ID
}

func (t *tracer) end(id spanID) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sp[id-1].EndUs = t.now()
	t.mu.Unlock()
}

// selfTime is a span name's summed duration and the part of it not
// covered by child spans.
type selfTime struct {
	Count   int     `json:"count"`
	TotalUs float64 `json:"total_us"`
	SelfUs  float64 `json:"self_us"`
}

// traceFile is the span file: host facts, inputs, the per-name
// self-time summary and every span.
type traceFile struct {
	Host     string              `json:"host"`
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Seconds  float64             `json:"seconds"`
	Scale    string              `json:"scale"`
	Started  string              `json:"started"`
	Reps     int                 `json:"reps"`
	Self     map[string]selfTime `json:"self_time_by_name"`
	Spans    []span              `json:"spans"`
}

func (t *tracer) write(path string, cfg childConfig) error {
	// Children of one parent do not overlap except under the serve
	// clients' phase spans, where two requests run at once; there the
	// covered interval is capped at the parent's own duration.
	covered := make([]float64, len(t.sp))
	for _, s := range t.sp {
		if s.Parent != 0 {
			covered[s.Parent-1] += s.EndUs - s.StartUs
		}
	}
	self := map[string]selfTime{}
	for i, s := range t.sp {
		d := s.EndUs - s.StartUs
		st := self[s.Name]
		st.Count++
		st.TotalUs += d
		st.SelfUs += d - min(covered[i], d)
		self[s.Name] = st
	}
	return writeJSON(path, traceFile{
		Host: hostFacts(), Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds,
		Scale: cfg.scale.name, Started: t.t0.UTC().Format(time.RFC3339),
		Reps: t.reps, Self: self, Spans: t.sp,
	})
}
