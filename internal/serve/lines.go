package serve

import (
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
)

// The response lines are appended by hand, byte for byte what
// json.Encoder writes for each (TestLinesAreEncoderOutput): a stored
// row is spliced in verbatim, since it is json.Marshal output — compact
// and HTML-escaped already — and the store verified its checksum, so
// re-validating it into its line would only cost.

func (h *headerLine) appendTo(b []byte) []byte {
	b = append(b, `{"run":`...)
	b = appendString(b, h.Run)
	b = append(b, `,"points":`...)
	b = strconv.AppendInt(b, int64(h.Points), 10)
	b = append(b, `,"version":`...)
	b = appendString(b, h.Version)
	return append(b, "}\n"...)
}

func (p *pointLine) appendTo(b []byte) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(p.Index), 10)
	b = append(b, `,"hash":`...)
	if p.sum != nil {
		b = append(hex.AppendEncode(append(b, '"'), p.sum[:]), '"')
	} else {
		b = appendString(b, p.Hash)
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, p.Cached)
	if len(p.Row) > 0 {
		b = append(append(b, `,"row":`...), p.Row...)
	}
	if p.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, p.Error)
	}
	return append(b, "}\n"...)
}

func (t *trailerLine) appendTo(b []byte) []byte {
	b = append(b, `{"done":`...)
	b = strconv.AppendBool(b, t.Done)
	b = strconv.AppendInt(append(b, `,"cached":`...), int64(t.Cached), 10)
	b = strconv.AppendInt(append(b, `,"executed":`...), int64(t.Executed), 10)
	b = strconv.AppendInt(append(b, `,"deduped":`...), int64(t.Deduped), 10)
	b = strconv.AppendInt(append(b, `,"failed":`...), int64(t.Failed), 10)
	return append(b, "}\n"...)
}

// appendString appends s as a json string. Printable ASCII that json
// does not escape — every hash, and most versions — is copied; anything
// else goes through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// flushAt is how much of a response is buffered before it is written
// when nothing asks for a flush sooner.
const flushAt = 16 << 10

// lineBufs recycles response buffers; each grows to about flushAt plus
// a line.
var lineBufs = sync.Pool{New: func() any { return new([]byte) }}

// lines is one response's NDJSON, appended a line at a time and written
// in batches: when flushAt bytes are buffered, when a line must reach
// the client at once, and at close.
type lines struct {
	w   http.ResponseWriter
	buf *[]byte // the pooled buffer b grows in
	b   []byte
}

func newLines(w http.ResponseWriter) lines {
	buf := lineBufs.Get().(*[]byte)
	return lines{w: w, buf: buf, b: (*buf)[:0]}
}

// sync writes the buffered lines if now is set or the buffer is full,
// and with now set flushes them to the client too. A write fails only
// when the client has gone, and then the rest of the response is moot.
func (l *lines) sync(now bool) {
	if !now && len(l.b) < flushAt {
		return
	}
	_, _ = l.w.Write(l.b)
	l.b = l.b[:0]
	if f, ok := l.w.(http.Flusher); ok && now {
		f.Flush()
	}
}

// close writes what is left and returns the buffer to the pool.
func (l *lines) close() {
	if len(l.b) > 0 {
		_, _ = l.w.Write(l.b)
	}
	*l.buf = l.b[:0]
	lineBufs.Put(l.buf)
}
