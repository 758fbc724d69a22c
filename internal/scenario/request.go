package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// MaxPoints is the most points one request body may hold; the point
// past it is refused as it arrives, before the rest is read.
const MaxPoints = 4096

// PointError is a request point that does not decode, lower, validate,
// or name a registered workload. Err is the json, lowering or
// *ValidationError error.
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
// points, lowered and validated, in order. It reads the body once,
// splitting it into the byte span of each point as it streams: each
// span is offered to probe (if not nil), and unless probe resolves it,
// decoded and kept, so the body is never held whole and the first bad
// point, or the point past MaxPoints, ends the read. A span is the
// bytes json would hand a json.RawMessage for the point; the scan finds
// where it ends, and the strict decode of an unresolved point checks
// what is inside. Exactly one of "spec" and "points" must be set; an
// unknown key, in the envelope or a point, a repeated envelope key, and
// anything but whitespace after the envelope are errors, so a bare Spec
// document is refused and no part of a body is accepted and then
// ignored. An error r returns is passed through, so a caller can tell
// its reader's limit from a bad body.
func DecodeRequest(r io.Reader, probe Probe) ([]*Spec, error) {
	return AppendRequest(nil, r, probe)
}

// AppendRequest is DecodeRequest appending the points to dst, so a
// caller that decodes many bodies can reuse one slice. On an error it
// returns nil.
func AppendRequest(dst []*Spec, r io.Reader, probe Probe) ([]*Spec, error) {
	s := scanners.Get().(*scanner)
	defer s.release()
	s.r = r
	points, err := s.request(dst, probe)
	if err != nil {
		clear(points[len(dst):])
		return nil, err
	}
	return points, nil
}

// scanner splits one request body into its envelope's keys and its
// points' byte spans, in one pass over a buffer refilled from r. The
// buffer holds the unread input from the span being scanned on, so it
// grows only to hold the longest point.
type scanner struct {
	r         io.Reader
	err       error  // what r returned last, once it returned an error
	buf       []byte // input read and not yet discarded
	pos, keep int    // the read position; buf[keep:] survives a refill
	pd        pointDecoder
}

// scanners recycles scanners, their buffers and point decoders across
// requests.
var scanners = sync.Pool{New: func() any { return new(scanner) }}

// maxPooledBuf is the largest buffer a scanner takes back to the pool:
// one long point must not pin its buffer for the process's lifetime.
const maxPooledBuf = 64 << 10

func (s *scanner) release() {
	if cap(s.buf) > maxPooledBuf {
		s.buf = nil
	}
	s.r, s.err, s.buf, s.pos, s.keep = nil, nil, s.buf[:0], 0, 0
	s.pd.r.Reset(nil)
	s.pd.d = Document{}
	scanners.Put(s)
}

// more reads into the buffer, discarding what lies before keep and
// growing it only when keep is at its start and it is full. It reports
// whether it read anything.
func (s *scanner) more() bool {
	n := copy(s.buf, s.buf[s.keep:])
	s.buf, s.pos, s.keep = s.buf[:n], s.pos-s.keep, 0
	if s.err != nil {
		return false
	}
	if n == cap(s.buf) {
		s.buf = slices.Grow(s.buf, max(n, 4<<10))
	}
	for {
		m, err := s.r.Read(s.buf[n:cap(s.buf)])
		s.buf, s.err = s.buf[:n+m], err
		if m > 0 || err != nil {
			return m > 0
		}
	}
}

// ended is the error for input that stops inside the body: the reader's
// own, or io.ErrUnexpectedEOF.
func (s *scanner) ended() error {
	if s.err == nil || s.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return s.err
}

// cut is the error for input that stops inside the value whose bytes so
// far are v. Where the reader failed, a syntax error json finds in v
// comes first, as json would have found it before reading on, so a body
// malformed before its reader's limit is refused as malformed.
func (s *scanner) cut(v []byte) error {
	if s.err != nil && s.err != io.EOF {
		dec := json.NewDecoder(bytes.NewReader(v))
		err := dec.Decode(new(json.RawMessage))
		if n := dec.InputOffset(); err == nil && n < int64(len(v)) {
			return syntaxError(v[n], "after top-level value")
		}
		if errors.As(err, new(*json.SyntaxError)) {
			return err
		}
	}
	return s.ended()
}

// next skips whitespace and returns the byte at the read position; ok is
// false at the end of the input.
func (s *scanner) next() (c byte, ok bool) {
	for {
		for ; s.pos < len(s.buf); s.pos++ {
			switch c := s.buf[s.pos]; c {
			case ' ', '\t', '\r', '\n':
			default:
				return c, true
			}
		}
		s.keep = s.pos
		if !s.more() {
			return 0, false
		}
	}
}

// The bytes value acts on outside a string; every other byte is 0.
const (
	classQuote = 1 + iota
	classOpen
	classClose
	classDelim // ends a literal
)

var scanClass = [256]uint8{
	'"': classQuote, '{': classOpen, '[': classOpen, '}': classClose, ']': classClose,
	',': classDelim, ' ': classDelim, '\t': classDelim, '\r': classDelim, '\n': classDelim,
}

// value scans the json value at the read position, a byte next
// returned, and returns its bytes, valid until the next read. It finds
// only the value's end — through strings, escapes and nesting — and
// leaves checking what lies between to the strict decode of the span.
func (s *scanner) value() ([]byte, error) {
	switch c := s.buf[s.pos]; c {
	case '}', ']', ',', ':':
		return nil, syntaxError(c, "looking for beginning of value")
	}
	s.keep = s.pos
	i, depth, inString := s.pos, 0, false
	for {
		for i < len(s.buf) {
			if inString {
				j := bytes.IndexByte(s.buf[i:], '"')
				if j < 0 {
					i = len(s.buf)
					break
				}
				// The quote ends the string unless an odd run of
				// backslashes escapes it; the run stops at the string's
				// opening quote, at or after keep.
				i += j
				k := i
				for s.buf[k-1] == '\\' {
					k--
				}
				if i++; (i-1-k)%2 == 1 {
					continue
				}
				if inString = false; depth == 0 {
					return s.span(i), nil
				}
				continue
			}
			switch scanClass[s.buf[i]] {
			case classQuote:
				inString = true
			case classOpen:
				depth++
			case classClose:
				if depth == 0 { // it ends a literal
					return s.span(i), nil
				}
				if depth--; depth == 0 {
					return s.span(i + 1), nil
				}
			case classDelim:
				if depth == 0 {
					return s.span(i), nil
				}
			}
			i++
		}
		rel := i - s.keep
		read := s.more()
		i = s.keep + rel
		if !read { // a value inside the envelope never ends the input
			return nil, s.cut(s.buf[s.keep:i])
		}
	}
}

// span returns buf[keep:end] and moves the read position past it.
func (s *scanner) span(end int) []byte {
	s.pos = end
	return s.buf[s.keep:end]
}

// envelope keys, as json matches a key to a field: without regard to case.
var (
	pointsKey = []byte("points")
	specKey   = []byte("spec")
)

// key reads the object key at the read position and returns it as json
// decodes it, valid until the next read. A key of printable ASCII
// without escapes is its bytes; any other goes through json.
func (s *scanner) key() ([]byte, error) {
	raw, err := s.value()
	if err != nil {
		return nil, err
	}
	name := raw[1 : len(raw)-1]
	for _, c := range name {
		if c < 0x20 || c > 0x7e || c == '\\' {
			var k string
			if err := json.Unmarshal(raw, &k); err != nil {
				return nil, err
			}
			return []byte(k), nil
		}
	}
	return name, nil
}

// expect consumes the byte want at the read position, after whitespace.
func (s *scanner) expect(want byte, where string) error {
	switch c, ok := s.next(); {
	case !ok:
		return s.ended()
	case c != want:
		return syntaxError(c, where)
	}
	s.pos++
	return nil
}

// open consumes the opening byte of an object or array, a byte next
// returned, and reports whether a first member follows it; if none
// does, it consumes the closing byte too.
func (s *scanner) open(closing byte) (more bool, err error) {
	s.pos++
	c, ok := s.next()
	switch {
	case !ok:
		return false, s.ended()
	case c == closing:
		s.pos++
		return false, nil
	}
	return true, nil
}

// after consumes what follows a member of an object or array, a comma
// or the closing byte, and reports whether another member follows.
func (s *scanner) after(closing byte, where, member string) (more bool, err error) {
	c, ok := s.next()
	switch {
	case !ok:
		return false, s.ended()
	case c == closing:
		s.pos++
		return false, nil
	case c != ',':
		return false, syntaxError(c, where)
	}
	s.pos++
	switch c, ok = s.next(); {
	case !ok:
		return false, s.ended()
	case c == closing:
		return false, syntaxError(c, "looking for beginning of "+member)
	}
	return true, nil
}

// request scans the body: the envelope, its keys and their values,
// appending the points to points.
func (s *scanner) request(points []*Spec, probe Probe) ([]*Spec, error) {
	var (
		base                           = len(points)
		spec                           *Spec
		seenPoints, seenSpec, haveSpec bool
	)
	point := func(i int, raw []byte) (*Spec, error) {
		if probe != nil && probe(i, raw) {
			return nil, nil
		}
		return s.pd.spec(raw, i)
	}
	switch c, ok := s.next(); {
	case !ok && s.err == io.EOF:
		return points, io.EOF // a body of whitespace, or none
	case !ok:
		return points, s.ended()
	case c != '{':
		return points, fmt.Errorf("json: the body must be an object, got %s", kindOf(c))
	}
	more, err := s.open('}')
	for ; more && err == nil; more, err = s.after('}', "after object key:value pair", "object key string") {
		if c := s.buf[s.pos]; c != '"' {
			return points, syntaxError(c, "looking for beginning of object key string")
		}
		key, err := s.key()
		if err != nil {
			return points, err
		}
		isPoints := bytes.EqualFold(key, pointsKey)
		if !isPoints && !bytes.EqualFold(key, specKey) {
			return points, fmt.Errorf("json: unknown field %q", key)
		}
		if isPoints && seenPoints || !isPoints && seenSpec {
			return points, repeatedKeyError(string(key))
		}
		if err := s.expect(':', "after object key"); err != nil {
			return points, err
		}
		c, ok := s.next()
		if !ok {
			return points, s.ended()
		}
		if isPoints {
			seenPoints = true
			if c != '[' { // null is no points, as an absent key
				raw, err := s.value()
				if err != nil {
					return points, err
				}
				if string(raw) != "null" {
					return points, fmt.Errorf(`json: "points" must be an array of point documents, got %s`, kindOf(c))
				}
				continue
			}
			more, err := s.open(']')
			for ; more && err == nil; more, err = s.after(']', "after array element", "value") {
				switch {
				case haveSpec:
					return points, errAmbiguous
				case len(points)-base == MaxPoints:
					return points, fmt.Errorf("sweep exceeds the limit of %d points", MaxPoints)
				}
				raw, err := s.value()
				if err != nil {
					return points, err
				}
				sp, err := point(len(points)-base, raw)
				if err != nil {
					return points, err
				}
				points = append(points, sp)
			}
			if err != nil {
				return points, err
			}
			continue
		}
		seenSpec = true
		raw, err := s.value()
		switch {
		case err != nil:
			return points, err
		case string(raw) == "null": // as an absent key
		case len(points) > base:
			// A point that does not decode is refused as that first,
			// as it would be alone.
			if err := s.pd.document(raw); err != nil {
				return points, &PointError{Index: 0, Err: err}
			}
			return points, errAmbiguous
		default:
			if spec, err = point(0, raw); err != nil {
				return points, err
			}
			haveSpec = true
		}
	}
	if err != nil {
		return points, err
	}
	// Only the end of input may follow; a reader error is passed through.
	if _, ok := s.next(); ok {
		return points, errTrailingData
	} else if s.err != io.EOF {
		return points, s.err
	}
	switch {
	case haveSpec:
		return append(points, spec), nil
	case len(points) == base:
		return points, errNoPoints
	}
	return points, nil
}

// syntaxError is a byte json's grammar does not allow where it stands.
func syntaxError(c byte, where string) error {
	return fmt.Errorf("json: invalid character %q %s", c, where)
}

// kindOf names the json value that starts with c.
func kindOf(c byte) string {
	switch {
	case c == '{':
		return "an object"
	case c == '[':
		return "an array"
	case c == '"':
		return "a string"
	case c == 't' || c == 'f':
		return "a boolean"
	}
	return fmt.Sprintf("%q", c)
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
	start := p.dec.InputOffset()
	err := p.dec.Decode(&p.d)
	if n := p.dec.InputOffset() - start; err == nil && n < int64(len(point)) {
		err = syntaxError(point[n], "after top-level value")
	}
	if err != nil { // a json.Decoder keeps its error and unread bytes
		p.dec = nil
	}
	return err
}

func (p *pointDecoder) spec(point []byte, i int) (*Spec, error) {
	if err := p.document(point); err != nil {
		return nil, &PointError{Index: i, Err: err}
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
