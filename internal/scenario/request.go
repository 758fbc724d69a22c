package scenario

import (
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

// DecodeRequest reads one `POST /v1/runs` body from r — "points" (a
// sweep) or "spec" (shorthand for a one-point sweep) — and returns its
// points, lowered and validated, in order. It decodes as the body
// streams: each point is read into a zeroed Document, lowered, checked
// and kept, so the body is never held whole and the first bad point,
// or the point past MaxPoints, ends the read. Exactly one of "spec" and
// "points" must be set; an unknown key, in the envelope or a point, a
// repeated envelope key, and anything but whitespace after the envelope
// are errors, so a bare Spec document is refused and no part of a body
// is accepted and then ignored. An error r returns is passed through,
// so a caller can tell its reader's limit from a bad body.
func DecodeRequest(r io.Reader) ([]*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	switch tok, err := dec.Token(); {
	case err != nil:
		return nil, err
	case tok != json.Delim('{'):
		return nil, fmt.Errorf("json: the body must be an object, got %v", tok)
	}
	var (
		d                    = new(Document) // every point is decoded here, zeroed first
		points               []*Spec
		spec                 *Spec
		seenPoints, seenSpec bool
	)
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
				if spec != nil {
					return nil, errAmbiguous
				}
				if len(points) == MaxPoints {
					return nil, fmt.Errorf("sweep exceeds the limit of %d points", MaxPoints)
				}
				*d = Document{}
				if err := dec.Decode(d); err != nil {
					return nil, err
				}
				sp, err := lowerPoint(d, len(points))
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
			// Decoded through a pointer, null clears it; an object fills *d.
			*d = Document{}
			p := d
			if err := dec.Decode(&p); err != nil {
				return nil, err
			}
			if p == nil {
				continue
			}
			if len(points) > 0 {
				return nil, errAmbiguous
			}
			if spec, err = lowerPoint(d, 0); err != nil {
				return nil, err
			}
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
	case spec != nil:
		return []*Spec{spec}, nil
	case len(points) == 0:
		return nil, errNoPoints
	}
	return points, nil
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
