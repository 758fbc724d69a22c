package trace

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

// A recorder keeps every event it is handed, in emission order.
func TestRecorderKeepsEveryKind(t *testing.T) {
	r := NewRecorder()
	for _, k := range allKinds() {
		r.Emit(Event{Kind: k})
	}
	if r.Len() != int(numKinds) {
		t.Fatalf("recorded %d events, want %d", r.Len(), numKinds)
	}
	for i, ev := range r.Events() {
		if ev.Kind != Kind(i) {
			t.Fatalf("event %d has kind %v, want %v", i, ev.Kind, Kind(i))
		}
	}
}

// allKinds lists every Kind.
func allKinds() []Kind {
	ks := make([]Kind, numKinds)
	for k := range ks {
		ks[k] = Kind(k)
	}
	return ks
}

func TestKindSets(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range allKinds() {
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

// TestWindowWriterMatchesRecorder pins the core property of the
// windowed (streaming) recorder: its stream is byte-identical to a
// retaining Recorder + WriteJSONL over the same events, including
// lengths the window does not divide.
func TestWindowWriterMatchesRecorder(t *testing.T) {
	for _, n := range []int{0, 1, streamWindow - 1, streamWindow, streamWindow * 5 / 2} {
		evs := sinkSampleEvents(n)
		rec := NewRecorder()
		var got bytes.Buffer
		stream := NewJSONLRecorder(&got)
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

// A streaming recorder's footprint is one window however long the run.
func TestStreamingRecorderStaysBounded(t *testing.T) {
	var out bytes.Buffer
	r := NewJSONLRecorder(&out)
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
	r := NewJSONLRecorder(w)
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
