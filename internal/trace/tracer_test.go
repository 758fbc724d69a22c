package trace

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestRecorderDefaultKindsExcludeEngineEvents(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Time: 1, Kind: KindEngineEvent})
	r.Emit(Event{Time: 2, Kind: KindExec, VP: 3})
	r.Emit(Event{Time: 3, Kind: KindRunEnd})
	if r.Len() != 2 {
		t.Fatalf("recorded %d events, want 2 (engine event filtered)", r.Len())
	}
	evs := r.Events()
	if evs[0].Kind != KindExec || evs[1].Kind != KindRunEnd {
		t.Fatalf("wrong events kept: %v, %v", evs[0].Kind, evs[1].Kind)
	}
}

func TestRecorderExplicitKinds(t *testing.T) {
	r := NewRecorder(KindEngineEvent, KindExec)
	for _, k := range allKinds() {
		r.Emit(Event{Kind: k})
	}
	if r.Len() != 2 {
		t.Fatalf("recorded %d events, want 2", r.Len())
	}
}

// allKinds lists every Kind, including KindEngineEvent.
func allKinds() []Kind {
	ks := make([]Kind, numKinds)
	for k := range ks {
		ks[k] = Kind(k)
	}
	return ks
}

func TestKindSets(t *testing.T) {
	all, def := allKinds(), DefaultKinds()
	if len(all) != len(def)+1 {
		t.Fatalf("allKinds %d vs DefaultKinds %d", len(all), len(def))
	}
	for _, k := range def {
		if k == KindEngineEvent {
			t.Fatal("DefaultKinds must not include KindEngineEvent")
		}
	}
	seen := map[string]bool{}
	for _, k := range all {
		name := k.String()
		if name == "unknown" || name == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must stringify as unknown")
	}
}

func TestCodeNames(t *testing.T) {
	if CollName(CollAllreduce) != "allreduce" || CollName(99) != "coll?" {
		t.Fatal("CollName wrong")
	}
	if TierName(TierInterNode) != "inter_node" || TierName(-1) != "tier?" {
		t.Fatal("TierName wrong")
	}
}

// sinkSampleEvents is a stream of n events cycling through every kind.
func sinkSampleEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			Time: time.Duration(i) * time.Microsecond,
			Dur:  time.Duration(i%7) * 100 * time.Nanosecond,
			Kind: Kind(i % int(numKinds)),
			PE:   int32(i % 8), VP: int32(i % 64), Peer: int32(i%64) - 1,
			Tag: int32(i % 5), Aux: int32(i % 3), Bytes: uint64(i) * 8,
		}
	}
	return evs
}

// streamMatchesRetained checks that a streaming recorder writes the
// bytes WriteJSONL writes over a retaining recorder's events, at stream
// lengths around the recorder's window.
func streamMatchesRetained(t *testing.T, kinds []Kind) {
	t.Helper()
	for _, n := range []int{0, 1, streamWindow - 1, streamWindow, streamWindow * 5 / 2} {
		evs := sinkSampleEvents(n)
		rec := NewRecorder(kinds...)
		var got bytes.Buffer
		stream := NewJSONLRecorder(&got, kinds...)
		for _, ev := range evs {
			rec.Emit(ev)
			stream.Emit(ev)
		}
		if err := stream.Close(); err != nil {
			t.Fatalf("%d events: %v", n, err)
		}
		var want bytes.Buffer
		if err := WriteJSONL(&want, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%d events: stream differs from retained JSONL", n)
		}
		if stream.Len() != rec.Len() {
			t.Fatalf("%d events: streaming Len %d, retaining Len %d", n, stream.Len(), rec.Len())
		}
	}
}

// TestWindowWriterMatchesRecorder pins the core property of the
// windowed (streaming) recorder: its stream is byte-identical to a
// retaining Recorder + WriteJSONL over the same events, including
// lengths the window does not divide.
func TestWindowWriterMatchesRecorder(t *testing.T) {
	streamMatchesRetained(t, allKinds())
}

// TestWindowWriterFilters checks the streaming recorder's kind
// selection matches the retaining one's under DefaultKinds.
func TestWindowWriterFilters(t *testing.T) {
	streamMatchesRetained(t, DefaultKinds())
}

// A streaming recorder's footprint is one window however long the run.
func TestStreamingRecorderStaysBounded(t *testing.T) {
	var out bytes.Buffer
	r := NewJSONLRecorder(&out, allKinds()...)
	for _, ev := range sinkSampleEvents(10 * streamWindow) {
		r.Emit(ev)
	}
	if c := cap(r.events); c > streamWindow {
		t.Fatalf("buffer capacity %d after %d events, want <= %d", c, 10*streamWindow, streamWindow)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	out   bytes.Buffer
	limit int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	room := w.limit - w.out.Len()
	if len(p) <= room {
		return w.out.Write(p)
	}
	w.out.Write(p[:max(room, 0)])
	return max(room, 0), errDiskFull
}

// The first write error sticks: Close reports it and nothing more is
// written.
func TestStreamingRecorderStopsAtFirstWriteError(t *testing.T) {
	const limit = 10000
	w := &failAfter{limit: limit}
	r := NewJSONLRecorder(w, allKinds()...)
	for _, ev := range sinkSampleEvents(3 * streamWindow) {
		r.Emit(ev)
	}
	if err := r.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want %v", err, errDiskFull)
	}
	if w.out.Len() != limit {
		t.Fatalf("%d bytes written, want the %d before the failure", w.out.Len(), limit)
	}
}

// The zero-overhead contract at an enabled hook: one append per event.
func BenchmarkRecorderEmit(b *testing.B) {
	r := NewRecorder()
	ev := Event{Time: time.Microsecond, Dur: time.Microsecond, Kind: KindExec, PE: 1, VP: 2, Peer: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(ev)
	}
}
