package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampleEvents covers every kind once, in a plausible timeline.
func sampleEvents() []Event {
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	return []Event{
		{Time: 0, Kind: KindEngineEvent, PE: -1, VP: -1, Peer: -1},
		{Time: 0, Dur: us(50), Kind: KindSetup, PE: 0, VP: -1, Peer: -1},
		{Time: us(50), Dur: us(1), Kind: KindSwitch, PE: 0, VP: 0, Peer: -1},
		{Time: us(51), Dur: us(10), Kind: KindExec, PE: 0, VP: 0, Peer: -1},
		{Time: us(55), Kind: KindSendPost, PE: 0, VP: 0, Peer: 1, Tag: 7, Bytes: 4096},
		{Time: us(55), Dur: us(3), Kind: KindLink, PE: 0, VP: -1, Peer: 1, Aux: TierInterNode, Bytes: 4096},
		{Time: us(56), Kind: KindRecvPost, PE: 1, VP: 1, Peer: 0, Tag: 7},
		{Time: us(58), Kind: KindMatch, PE: 1, VP: 1, Peer: 0, Tag: 7, Aux: MatchOnDeliver},
		{Time: us(58), Kind: KindUnexpected, PE: 1, VP: 1, Peer: 0, Tag: 8},
		{Time: us(56), Dur: us(2), Kind: KindWait, PE: 1, VP: 1, Peer: 0, Tag: 7, Aux: WaitMessage},
		{Time: us(61), Dur: us(5), Kind: KindColl, PE: 0, VP: 0, Peer: -1, Aux: CollAllreduce},
		{Time: us(66), Dur: us(4), Kind: KindWait, PE: 0, VP: 0, Peer: -1, Aux: WaitMigrate},
		{Time: us(66), Dur: us(4), Kind: KindMigration, PE: 0, VP: 0, Peer: 1, Bytes: 1 << 20},
		{Time: us(70), Dur: us(2), Kind: KindFSIO, PE: 1, VP: -1, Peer: -1, Bytes: 512},
		{Time: us(70), Dur: us(1), Kind: KindIdle, PE: 0, VP: -1, Peer: -1},
		{Time: us(72), Kind: KindRunEnd, PE: -1, VP: -1, Peer: -1},
	}
}

func TestWriteJSONL(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(events) {
		t.Fatalf("%d lines for %d events", len(lines), len(events))
	}
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
		for _, field := range []string{"t_ns", "dur_ns", "kind", "pe", "vp", "peer", "tag", "aux", "comm", "bytes"} {
			if _, ok := m[field]; !ok {
				t.Fatalf("line %d missing %q: %s", i, field, line)
			}
		}
		if m["kind"] != events[i].Kind.String() {
			t.Fatalf("line %d kind %v, want %v", i, m["kind"], events[i].Kind)
		}
		// Every line has the same fixed field order.
		if !strings.HasPrefix(line, `{"t_ns":`) {
			t.Fatalf("line %d not in fixed field order: %s", i, line)
		}
	}
}

func TestWriteChromeValidAndComplete(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sampleEvents()); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("chrome export is not a valid JSON array: %v", err)
	}

	// Track names for every rank, PE, the network, and the FS.
	names := map[string]bool{}
	phases := map[string]int{}
	for _, r := range records {
		phases[r["ph"].(string)]++
		if r["ph"] == "M" && r["name"] == "process_name" {
			names[r["args"].(map[string]any)["name"].(string)] = true
		}
	}
	for _, want := range []string{"rank 0", "rank 1", "PE 0", "PE 1", "network", "shared fs"} {
		if !names[want] {
			t.Errorf("missing process_name metadata for %q (have %v)", want, names)
		}
	}
	// Slices, instants, and async begin/end pairs must all appear.
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Errorf("missing slice or instant events: %v", phases)
	}
	if phases["b"] != phases["e"] || phases["b"] != 3 {
		t.Errorf("async begin/end mismatch: %d b vs %d e, want 3 each (link, migration, fs)", phases["b"], phases["e"])
	}
	// Engine events are excluded from the timeline export.
	if strings.Contains(buf.String(), "engine_event") {
		t.Error("chrome export must skip engine events")
	}
	// Distinct compute/comm categories per rank (the Perfetto acceptance
	// criterion: compute, comm, and idle slices are distinguishable).
	for _, cat := range []string{"compute", "comm", "idle", "runtime"} {
		if !strings.Contains(buf.String(), `"cat":"`+cat+`"`) {
			t.Errorf("missing %q category slices", cat)
		}
	}
}

func TestExportsAreByteDeterministic(t *testing.T) {
	events := sampleEvents()
	render := func(f func(w *bytes.Buffer) error) []byte {
		var buf bytes.Buffer
		if err := f(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	j1 := render(func(w *bytes.Buffer) error { return WriteJSONL(w, events) })
	j2 := render(func(w *bytes.Buffer) error { return WriteJSONL(w, events) })
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL export not byte-deterministic")
	}
	c1 := render(func(w *bytes.Buffer) error { return WriteChrome(w, events) })
	c2 := render(func(w *bytes.Buffer) error { return WriteChrome(w, events) })
	if !bytes.Equal(c1, c2) {
		t.Error("chrome export not byte-deterministic")
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &records); err != nil {
		t.Fatalf("empty chrome export invalid: %v (%q)", err, buf.String())
	}
	if len(records) != 0 {
		t.Fatalf("%d records for no events", len(records))
	}
}
