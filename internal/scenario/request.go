package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
)

// MaxPoints is the most points one request body may hold; the point
// past it is refused as it arrives, before the rest is read.
const MaxPoints = 4096

// PointError is a request point that does not lower, validate, or name
// a registered workload. Err is the *ValidationError or lowering error.
type PointError struct {
	Index int
	Err   error
}

func (e *PointError) Error() string { return fmt.Sprintf("point %d: %v", e.Index, e.Err) }

func (e *PointError) Unwrap() error { return e.Err }

// A Probe sees each request point's bytes, with the point's index,
// before DecodeRequest decodes them; reporting true resolves the point:
// it is not decoded and its entry in DecodeRequest's result is nil.
// point is valid only during the call.
type Probe func(i int, point []byte) bool

// DecodeRequest reads one `POST /v1/runs` body from r — "points" (a
// sweep) or "spec" (shorthand for a one-point sweep) — and returns its
// points, lowered and validated, in order. It decodes as the body
// streams: each point is read as its bytes, offered to probe (if not
// nil), and unless probe resolves it, decoded by DecodePoint and kept,
// so the body is never held whole and the first bad point, or the point
// past MaxPoints, ends the read. Exactly one of "spec" and "points" must
// be set; an unknown key, in the envelope or a point, a repeated
// envelope key, and anything but whitespace after the envelope are
// errors, so a bare Spec document is refused and no part of a body is
// accepted and then ignored. An error r returns is passed through, so a
// caller can tell its reader's limit from a bad body.
func DecodeRequest(r io.Reader, probe Probe) ([]*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	switch tok, err := dec.Token(); {
	case err != nil:
		return nil, err
	case tok != json.Delim('{'):
		return nil, fmt.Errorf("json: the body must be an object, got %v", tok)
	}
	var (
		raw                            json.RawMessage // every point is read here first
		pd                             pointDecoder
		points                         []*Spec
		spec                           *Spec
		seenPoints, seenSpec, haveSpec bool
	)
	point := func(i int) (*Spec, error) {
		if probe != nil && probe(i, raw) {
			return nil, nil
		}
		return pd.spec(raw, i)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		key := tok.(string) // an object key is always a string
		switch {
		case strings.EqualFold(key, "points"):
			if seenPoints {
				return nil, repeatedKeyError(key)
			}
			seenPoints = true
			tok, err := dec.Token()
			if err != nil {
				return nil, err
			}
			if tok == nil { // null: no points, as an absent key
				continue
			}
			if tok != json.Delim('[') {
				return nil, fmt.Errorf(`json: "points" must be an array of point documents, got %v`, tok)
			}
			for dec.More() {
				if haveSpec {
					return nil, errAmbiguous
				}
				if len(points) == MaxPoints {
					return nil, fmt.Errorf("sweep exceeds the limit of %d points", MaxPoints)
				}
				if err := dec.Decode(&raw); err != nil {
					return nil, err
				}
				sp, err := point(len(points))
				if err != nil {
					return nil, err
				}
				points = append(points, sp)
			}
			if _, err := dec.Token(); err != nil { // the array's ']'
				return nil, err
			}
		case strings.EqualFold(key, "spec"):
			if seenSpec {
				return nil, repeatedKeyError(key)
			}
			seenSpec = true
			if err := dec.Decode(&raw); err != nil {
				return nil, err
			}
			if string(raw) == "null" { // as an absent key
				continue
			}
			if len(points) > 0 {
				// A point that does not decode is refused as that first.
				if err := pd.document(raw); err != nil {
					return nil, err
				}
				return nil, errAmbiguous
			}
			if spec, err = point(0); err != nil {
				return nil, err
			}
			haveSpec = true
		default:
			return nil, fmt.Errorf("json: unknown field %q", key)
		}
	}
	if _, err := dec.Token(); err != nil { // the envelope's '}'
		return nil, err
	}
	// Only the end of input may follow: a second value is refused,
	// whole or cut short, while a reader error is passed through.
	switch _, err := dec.Token(); {
	case err == io.EOF:
	case err == nil, err == io.ErrUnexpectedEOF, errors.As(err, new(*json.SyntaxError)):
		return nil, errTrailingData
	default:
		return nil, err
	}
	switch {
	case haveSpec:
		return []*Spec{spec}, nil
	case len(points) == 0:
		return nil, errNoPoints
	}
	return points, nil
}

// DecodePoint decodes request point i from its bytes as DecodeRequest
// does: strictly into a zeroed Document, then lowered and validated.
// A document that does not decode is a json error; one that does not
// lower or validate, a *PointError naming i.
func DecodePoint(point []byte, i int) (*Spec, error) {
	return new(pointDecoder).spec(point, i)
}

// pointDecoder decodes point documents from their bytes: one strict
// json.Decoder reads each in turn from a reader reset to it, into one
// Document zeroed first (json fills an existing pointee or slice in
// place, so a Document not zeroed between points would share
// sub-objects across them).
type pointDecoder struct {
	r   bytes.Reader
	dec *json.Decoder
	d   Document
}

func (p *pointDecoder) document(point []byte) error {
	if p.dec == nil {
		p.dec = json.NewDecoder(&p.r)
		p.dec.DisallowUnknownFields()
	}
	p.r.Reset(point)
	p.d = Document{}
	return p.dec.Decode(&p.d)
}

func (p *pointDecoder) spec(point []byte, i int) (*Spec, error) {
	if err := p.document(point); err != nil {
		return nil, err
	}
	return lowerPoint(&p.d, i)
}

var (
	errAmbiguous    = errors.New(`"spec" and "points" are mutually exclusive`)
	errNoPoints     = errors.New(`body needs "points" (a sweep) or "spec" (one point)`)
	errTrailingData = errors.New("data after the request body")
)

// repeatedKeyError refuses an envelope key seen before: json would keep
// the last value and drop the first without a word.
func repeatedKeyError(key string) error {
	return fmt.Errorf("json: request key %q appears twice", key)
}

// lowerPoint lowers and validates request point i into a Spec of its
// own: d's sub-objects were decoded fresh, so the Spec shares them with
// no other point.
func lowerPoint(d *Document, i int) (*Spec, error) {
	sp := new(Spec)
	var err error
	if *sp, err = d.Spec(); err == nil {
		err = sp.Validate()
	}
	if err == nil && sp.Workload == "" {
		// Valid for Config(), but a request has no program to inject.
		err = &ValidationError{Errs: []FieldError{{Field: "Workload", Msg: "a request point needs a registered workload"}}}
	}
	if err != nil {
		return nil, &PointError{Index: i, Err: err}
	}
	return sp, nil
}
