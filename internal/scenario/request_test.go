package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// oracleHashes is what the server made of a body before DecodeRequest
// lowered and validated points itself: the oracle's documents, each
// lowered, validated, required to name a workload and hashed, in order.
// Any refusal on the way is an error.
func oracleHashes(body []byte) ([]string, error) {
	docs, err := oracleDecodeRequest(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hashes := make([]string, len(docs))
	for i := range docs {
		sp, err := docs[i].Spec()
		if err == nil {
			err = sp.Validate()
		}
		if err == nil && sp.Workload == "" {
			err = &ValidationError{Errs: []FieldError{{Field: "Workload", Msg: "a request point needs a registered workload"}}}
		}
		if err != nil {
			return nil, &PointError{Index: i, Err: err}
		}
		if hashes[i], err = sp.Hash(); err != nil {
			return nil, err
		}
	}
	return hashes, nil
}

// envelopeShape reports whether an envelope key repeats, as json
// matches keys (without regard to case), and whether anything but
// whitespace follows the envelope. A body whose envelope does not parse
// reports neither.
func envelopeShape(body []byte) (repeated, trailing bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false, false
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false, false
		}
		var value json.RawMessage
		if dec.Decode(&value) != nil {
			return false, false
		}
		for _, k := range keys {
			repeated = repeated || strings.EqualFold(k, tok.(string))
		}
		keys = append(keys, tok.(string))
	}
	if _, err := dec.Token(); err != nil {
		return false, false
	}
	return repeated, len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
}

// memoProbe is a Probe over a memo of point bytes to content hashes,
// the way the server resolves points it has seen.
type memoProbe struct {
	t     *testing.T
	known map[string]string
	seen  []string // the bytes of each point offered, in order
}

func (m *memoProbe) probe(i int, point []byte) bool {
	if i != len(m.seen) {
		m.t.Fatalf("probe offered point %d after %d points", i, len(m.seen))
	}
	m.seen = append(m.seen, string(point))
	_, ok := m.known[string(point)]
	return ok
}

// decode decodes body through the probe and returns its point hashes,
// a resolved point's from the memo; it remembers each decoded point's.
func (m *memoProbe) decode(body []byte) (hashes []string, resolved int, err error) {
	m.seen = m.seen[:0]
	points, err := DecodeRequest(bytes.NewReader(body), m.probe)
	if err != nil {
		return nil, 0, err
	}
	hashes = make([]string, len(points))
	for i, sp := range points {
		if sp == nil {
			hashes[i] = m.known[m.seen[i]]
			resolved++
			continue
		}
		if hashes[i], err = sp.Hash(); err != nil {
			return nil, 0, err
		}
		m.known[m.seen[i]] = hashes[i]
	}
	return hashes, resolved, nil
}

// learn remembers every point offered in the last decode that decodes
// alone, so a body refused at a later point is known up to it.
func (m *memoProbe) learn() {
	for _, point := range m.seen {
		if sp, err := DecodePoint([]byte(point), 0); err == nil {
			if h, err := sp.Hash(); err == nil {
				m.known[point] = h
			}
		}
	}
}

// sameOutcome fails unless two decodes of body agree: the same hashes,
// or the same error text naming the same point.
func sameOutcome(t *testing.T, body []byte, what string, want, got []string, wantErr, gotErr error) {
	t.Helper()
	var wp, gp *PointError
	switch {
	case (wantErr == nil) != (gotErr == nil), wantErr != nil && wantErr.Error() != gotErr.Error():
		t.Fatalf("%s: error %v, the plain decode's %v\nbody: %s", what, gotErr, wantErr, body)
	case errors.As(wantErr, &wp) != errors.As(gotErr, &gp), wp != nil && wp.Index != gp.Index:
		t.Fatalf("%s: point error %v, the plain decode's %v\nbody: %s", what, gotErr, wantErr, body)
	case !slices.Equal(want, got):
		t.Fatalf("%s: hashes %v, the plain decode's %v\nbody: %s", what, got, want, body)
	}
}

// FuzzDecodeRequest holds the streaming decoder to the one-Decode
// decoder it replaced (oracleDecodeRequest): a body the oracle accepts,
// whose every point lowers, validates and names a workload, is accepted
// with the same point hashes in order, unless an envelope key repeats,
// something follows the envelope or it has more than MaxPoints points;
// those, and every body the oracle or a point check refuses, are refused.
// And a probe changes nothing but what is decoded: through an empty
// memo, and again once the memo knows every point that decodes alone,
// the body yields the plain decode's hashes, or its error for the same
// point, and the second pass resolves every point of an accepted body.
func FuzzDecodeRequest(f *testing.F) {
	examples, err := filepath.Glob("../../examples/*.json")
	if err != nil || len(examples) == 0 {
		f.Fatalf("no example documents: %v", err)
	}
	for _, path := range examples {
		body, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, doc := range specDecodeSeeds {
		f.Add([]byte(`{"spec":` + doc + `}`))
	}
	a := specDecodeSeeds[0]
	b := strings.Replace(a, `"vps":4`, `"vps":2`, 1)
	for _, body := range []string{
		`{"points":[` + a + `]}{"points":[` + b + `]}`,
		`{"points":[` + a + `],"points":[` + b + `]}`,
		`{"points":[` + a + `],"POINTS":[` + b + `]}`,
		`{"spec":` + a + `,"spec":null}`,
		`{"points":[` + a + `]} x`,
		`{"points":[` + a + `]}}`,
		`{"points":[` + a + `]} "cut`,
		"{\"points\":[" + a + "]} \t\r\n",
		`{"POINTS":[` + a + `,` + b + `]}`,
		`{"spec":null,"points":[` + a + `]}`,
		`{"points":[],"spec":` + a + `}`,
		`{"points":null,"Spec":` + a + `}`,
		`{"points":[` + a + `],"spec":` + b + `}`,
		`{"spec":` + a + `,"points":[` + b + `]}`,
		`{"points":[` + a + `],"spec":null}`,
		`{"points":[null]}`,
		`{"points":[{}]}`,
		`{"points":[],"spec":null}`,
		`{"points":{}}`,
		`{"spec":[]}`,
		`{"priority":1,"points":[` + a + `]}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		points, err := DecodeRequest(bytes.NewReader(body), nil)
		var plain []string
		for _, sp := range points {
			h, err := sp.Hash()
			if err != nil {
				t.Fatalf("an accepted point does not hash: %v\nbody: %s", err, body)
			}
			plain = append(plain, h)
		}
		m := &memoProbe{t: t, known: map[string]string{}}
		first, _, ferr := m.decode(body)
		sameOutcome(t, body, "through an empty memo", plain, first, err, ferr)
		m.learn()
		second, resolved, serr := m.decode(body)
		sameOutcome(t, body, "through a filled memo", plain, second, err, serr)
		if serr == nil && resolved != len(second) {
			t.Fatalf("the filled memo resolved %d of %d points\nbody: %s", resolved, len(second), body)
		}
		if repeated, trailing := envelopeShape(body); repeated || trailing {
			if err == nil {
				t.Fatalf("accepted a body with a repeated key (%v) or data after it (%v)\nbody: %s", repeated, trailing, body)
			}
			return
		}
		want, oerr := oracleHashes(body)
		switch {
		case oerr != nil:
			if err == nil {
				t.Fatalf("accepted a body the oracle refuses (%v)\nbody: %s", oerr, body)
			}
			return
		case len(want) > MaxPoints:
			if err == nil {
				t.Fatalf("accepted %d points, past the limit", len(points))
			}
			return
		case err != nil:
			t.Fatalf("refused a body the oracle accepts: %v\nbody: %s", err, body)
		case len(points) != len(want):
			t.Fatalf("%d points, the oracle %d\nbody: %s", len(points), len(want), body)
		}
		for i, sp := range points {
			if h, err := sp.Hash(); err != nil || h != want[i] {
				t.Fatalf("point %d hashes to %s (%v), the oracle's to %s\nbody: %s", i, h, err, want[i], body)
			}
		}
	})
}

// Two points of one sweep are decoded through one Document, yet share
// nothing: json fills an existing pointee or slice in place, so a
// Document not zeroed between points would hand the second point's
// checkpoint, churn, faults and placement to the first as well.
func TestDecodedPointsShareNothing(t *testing.T) {
	const (
		a = `{"workload":"checkpointed","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":2},"method":"pieglobals",` +
			`"checkpoint":{"target":"fs","interval_ns":19000000},"faults":{"seed":3,"mtbf_ns":50000000,"horizon_ns":400000000},` +
			`"churn":{"seed":7,"eviction_every_ns":20000000,"notice_ns":1000000000,"horizon_ns":400000000,"max_events":2},"placement":[0,1,2,3]}`
		b = `{"workload":"checkpointed","vps":4,"machine":{"nodes":2,"procs_per_node":1,"pes_per_proc":2},"method":"pieglobals",` +
			`"checkpoint":{"target":"buddy","interval_ns":25000000},"faults":{"seed":5,"mtbf_ns":70000000,"horizon_ns":300000000},` +
			`"churn":{"seed":9,"arrival_every_ns":30000000,"horizon_ns":300000000,"max_events":1},"placement":[3,2,1,0]}`
	)
	decode := func(body string) []*Spec {
		t.Helper()
		points, err := DecodeRequest(strings.NewReader(body), nil)
		if err != nil {
			t.Fatalf("%v\nbody: %s", err, body)
		}
		return points
	}
	hash := func(sp *Spec) string {
		t.Helper()
		h, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	body := `{"points":[` + a + `,` + b + `]}`
	sweep := decode(body)
	x, y := sweep[0], sweep[1]
	if x == y || x.Checkpoint == y.Checkpoint || x.Churn == y.Churn || x.Faults == y.Faults || &x.Placement[0] == &y.Placement[0] {
		t.Fatalf("the two points share a Spec or a sub-object:\n%+v\n%+v", x, y)
	}
	alone := [2]string{hash(decode(`{"spec":` + a + `}`)[0]), hash(decode(`{"spec":` + b + `}`)[0])}
	for edited := range 2 {
		sweep := decode(body)
		sp := sweep[edited]
		sp.Checkpoint.Interval *= 2
		sp.Churn.Seed++
		sp.Faults.Seed++
		sp.Placement[0]++
		if other := 1 - edited; hash(sweep[other]) != alone[other] {
			t.Errorf("editing point %d moved point %d's hash off its one-point body's", edited, other)
		}
	}
}

// A node grouping for any balancer but hierarchical, or a negative one,
// refuses the body and names the key: it used to be accepted and run as
// the point without it.
func TestBalancerPEsPerNodeIsRefusedUnlessRead(t *testing.T) {
	for _, keys := range []string{
		`"balancer":"greedy","balancer_pes_per_node":7`,
		`"balancer_pes_per_node":7`,
		`"balancer":"hierarchical","balancer_pes_per_node":-5`,
	} {
		body := `{"spec":{"workload":"adcirc","vps":4,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2},` + keys + `}}`
		if _, err := DecodeRequest(strings.NewReader(body), nil); err == nil || !strings.Contains(err.Error(), "balancer_pes_per_node") {
			t.Errorf("%s: %v, want a refusal naming balancer_pes_per_node", keys, err)
		}
	}
}

// A hierarchical node grouping larger than the machine is refused as a
// Balancer FieldError: the balancer clamps it to the PE count, so 4 and
// 100 on a 4-PE machine were two hashes for one row. Under churn an
// expansion can grow the machine past it, so there it stands.
func TestHierarchicalGroupingBeyondTheMachineIsRefused(t *testing.T) {
	const point = `{"workload":"adcirc","vps":8,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":4},"balancer":"hierarchical"%s%s}`
	const churn = `,"checkpoint":{"target":"buddy","interval_ns":50000000},"churn":{"seed":7,"eviction_every_ns":20000000,"notice_ns":1000000000,"horizon_ns":400000000,"max_events":2}`
	decode := func(grouping, churn string) error {
		_, err := DecodeRequest(strings.NewReader(`{"spec":`+fmt.Sprintf(point, grouping, churn)+`}`), nil)
		return err
	}
	err := decode(`,"balancer_pes_per_node":100`, "")
	var verr *ValidationError
	if !errors.As(err, &verr) || len(verr.Errs) != 1 || verr.Errs[0].Field != "Balancer" ||
		!strings.Contains(verr.Errs[0].Msg, "balancer_pes_per_node 100 exceeds the machine's 4 PEs") {
		t.Fatalf("grouping 100 on 4 PEs: %v, want one Balancer FieldError", err)
	}
	for _, tc := range []struct{ grouping, churn string }{
		{`,"balancer_pes_per_node":4`, ""},
		{"", ""},
		{`,"balancer_pes_per_node":100`, churn},
	} {
		if err := decode(tc.grouping, tc.churn); err != nil {
			t.Errorf("grouping %q, churn %v: %v", tc.grouping, tc.churn != "", err)
		}
	}
}
