package trace

import (
	"bytes"
	"testing"
	"time"
)

func windowSampleEvents(n int) []Event {
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

// TestWindowWriterMatchesRecorder pins the core property: a windowed
// stream is byte-identical to Recorder + WriteJSONL over the same
// events, for any window size, including windows that don't divide the
// stream length.
func TestWindowWriterMatchesRecorder(t *testing.T) {
	evs := windowSampleEvents(1000)
	rec := NewRecorder(allKinds()...)
	for _, ev := range evs {
		rec.Emit(ev)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, rec.Events()); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1, 7, 64, 1000, 4096} {
		var got bytes.Buffer
		ww := NewWindowWriter(&got, window, allKinds()...)
		for _, ev := range evs {
			ww.Emit(ev)
		}
		if err := ww.Close(); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("window %d: stream differs from buffered JSONL", window)
		}
		if ww.Emitted() != uint64(len(evs)) {
			t.Fatalf("window %d: emitted %d, want %d", window, ww.Emitted(), len(evs))
		}
	}
}

// TestWindowWriterFilters checks kind selection matches Recorder's.
func TestWindowWriterFilters(t *testing.T) {
	evs := windowSampleEvents(200)
	rec := NewRecorder() // DefaultKinds: everything but KindEngineEvent
	for _, ev := range evs {
		rec.Emit(ev)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	ww := NewWindowWriter(&got, 16)
	for _, ev := range evs {
		ww.Emit(ev)
	}
	if err := ww.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("filtered windowed stream differs from filtered recorder stream")
	}
}

// TestMemGauge exercises the gauge's clamping and per-rank division.
func TestMemGauge(t *testing.T) {
	g := NewMemGauge()
	g.SampleBuild()
	hold := make([]byte, 1<<20)
	for i := range hold {
		hold[i] = byte(i)
	}
	g.Sample()
	if g.PeakBytes < g.BuildBytes {
		t.Fatalf("peak %d below build %d", g.PeakBytes, g.BuildBytes)
	}
	if hold[len(hold)-1] == 0 { // keep hold live past Sample
		t.Fatal("unreachable")
	}
	b, p := g.PerRank(0)
	if b != 0 || p != 0 {
		t.Fatal("PerRank(0) must be zero")
	}
}
