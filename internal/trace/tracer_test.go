package trace

import (
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

// The zero-overhead contract at an enabled hook: one append per event.
func BenchmarkRecorderEmit(b *testing.B) {
	r := NewRecorder()
	ev := Event{Time: time.Microsecond, Dur: time.Microsecond, Kind: KindExec, PE: 1, VP: 2, Peer: -1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Emit(ev)
	}
}
