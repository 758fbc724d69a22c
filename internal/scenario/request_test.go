package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
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
		if sp, err := new(pointDecoder).spec([]byte(point), 0); err == nil {
			if h, err := sp.Hash(); err == nil {
				m.known[point] = h
			}
		}
	}
}

// oracleSpans is what one json Decode of an accepted body hands a
// json.RawMessage for each of its points, in order.
func oracleSpans(t *testing.T, body []byte) []string {
	t.Helper()
	var req struct {
		Points []json.RawMessage `json:"points"`
		Spec   json.RawMessage   `json:"spec"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("json refuses an accepted body: %v\nbody: %s", err, body)
	}
	var spans []string
	for _, p := range req.Points {
		spans = append(spans, string(p))
	}
	if len(spans) == 0 {
		spans = append(spans, string(req.Spec))
	}
	return spans
}

// A body cut at any byte is accepted exactly when the oracle accepts
// it, and a reader that fails at that byte instead of ending has its
// error passed through, wherever the cut falls: between tokens, inside
// a key, inside a point's string, number or nesting, or inside a
// literal standing for a whole envelope value or point.
func TestDecodeRequestCutAtEveryByte(t *testing.T) {
	docs := []string{
		specDecodeSeeds[0],
		`{"workload":"empty","vps":2,"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":2,"seed":3},"placement":[0,1]}`,
		`{"workload":"adcirc","vps":4,"workload_params":{"quick":true},"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}`,
	}
	errCut := errors.New("cut")
	for _, body := range []string{
		"{\"points\" : [" + strings.Join(docs, ", ") + "]}\n",
		`{"points":null,"spec":` + docs[1] + `}`,
	} {
		for k := 0; k <= len(body); k++ {
			cut := body[:k]
			_, err := DecodeRequest(strings.NewReader(cut), nil)
			_, oerr := oracleDecodeRequest(strings.NewReader(cut))
			if (err == nil) != (oerr == nil) {
				t.Fatalf("cut at %d: error %v, the oracle's %v\nbody: %s", k, err, oerr, cut)
			}
			r := io.MultiReader(strings.NewReader(cut), iotest.ErrReader(errCut))
			if _, err := DecodeRequest(r, nil); err != errCut {
				t.Fatalf("cut at %d by a failing reader: error %v, want its own\nbody: %s", k, err, cut)
			}
		}
	}
	// A point or envelope value that is a literal is refused once it
	// ends, but a body cut inside one has not ended it.
	for _, cut := range []string{`{"points":[1`, `{"points":[12e-`, `{"points":[tr`, `{"spec":nul`, `{"points":fals`} {
		r := io.MultiReader(strings.NewReader(cut), iotest.ErrReader(errCut))
		if _, err := DecodeRequest(r, nil); err != errCut {
			t.Fatalf("%s cut by a failing reader: error %v, want its own", cut, err)
		}
		if _, err := DecodeRequest(strings.NewReader(cut), nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("%s at the end of input: error %v, want %v", cut, err, io.ErrUnexpectedEOF)
		}
	}
	// What json finds malformed before the reader fails is refused as
	// malformed, as json refused it.
	for _, cut := range []string{`{"points":[tx`, `{"points":[1x`, `{"points":[{"vps":x`, "{\"spec\":\"a\x01"} {
		r := io.MultiReader(strings.NewReader(cut), iotest.ErrReader(errCut))
		if _, err := DecodeRequest(r, nil); err == errCut || err == nil {
			t.Fatalf("%s cut by a failing reader: error %v, want the syntax error", cut, err)
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
		// What the span scanner must see through: brackets, braces, an
		// escaped quote and backslashes inside point strings, nesting in
		// a point, an escaped envelope key, whitespace between every
		// token, and invalid UTF-8 in a string.
		`{"points":[{"workload":"empty]","vps":4},{"workload":"}","vps":4}]}`,
		`{"points":[{"workload":"em\"pty","vps":4},{"workload":"\\","vps":4},{"workload":"\\\"]}","vps":4}]}`,
		`{"points":[{"workload":"empty","vps":4,"placement":[0,[1],{"a":[2]}],"machine":{"nodes":1,"procs_per_node":1,"pes_per_proc":1}}]}`,
		`{"points":[{"workload":"emp\u0074y","vps":4},{"workload":"\u0065mpty","vps":2,"placement":[0,0]}]}`,
		`{"poin\u0074s":[` + a + `]}`,
		`{"\u0073pec":` + a + `}`,
		" \t{ \"points\" \n: [ " + a + " ,\r\n" + b + " ] , \"spec\" : null } \n",
		"{\"points\":[{\"workload\":\"\xff\xfe\",\"vps\":4}]}",
		"{\"points\":[" + a + "],\"\xffspec\":null}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		points, err := DecodeRequest(bytes.NewReader(body), nil)
		if err == nil {
			// Each point was offered as the bytes json hands a RawMessage.
			var seen []string
			if _, err := DecodeRequest(bytes.NewReader(body), func(_ int, point []byte) bool {
				seen = append(seen, string(point))
				return false
			}); err != nil {
				t.Fatalf("refused through a probe that resolves nothing: %v\nbody: %s", err, body)
			}
			if spans := oracleSpans(t, body); !slices.Equal(seen, spans) {
				t.Fatalf("the probe saw %q, json's spans are %q\nbody: %s", seen, spans, body)
			}
		}
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

// A "spec" whose document does not decode is refused as point 0, with
// the error a lone {"spec":…} gets, whether it comes before "points" or
// after them.
func TestUndecodableSpecIsRefusedAsItsPointInEitherOrder(t *testing.T) {
	good := specDecodeSeeds[0]
	const bad = `{"workload":"empty","vps":4,"bogus":1}`
	_, want := DecodeRequest(strings.NewReader(`{"spec":`+bad+`}`), nil)
	var wp *PointError
	if !errors.As(want, &wp) || wp.Index != 0 {
		t.Fatalf("a lone spec: %v, want a *PointError for point 0", want)
	}
	for _, body := range []string{
		`{"spec":` + bad + `,"points":[` + good + `]}`,
		`{"points":[` + good + `],"spec":` + bad + `}`,
	} {
		_, err := DecodeRequest(strings.NewReader(body), nil)
		var pe *PointError
		if !errors.As(err, &pe) || pe.Index != 0 || err.Error() != want.Error() {
			t.Errorf("%s: %v, want %v", body, err, want)
		}
	}
}
