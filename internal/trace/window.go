package trace

import (
	"bufio"
	"io"
)

// WindowWriter is a Tracer that streams events to an io.Writer in
// bounded windows instead of buffering the whole run in memory. A
// traced million-rank world emits millions of events; a Recorder would
// hold them all (48 bytes each), while a WindowWriter's footprint is
// one fixed window regardless of run length. Events are encoded in the
// canonical JSONL format as each window fills, so the resulting file is
// byte-identical to Recorder + WriteJSONL over the same stream.
//
// Like every Tracer it is driven from the world's single logical
// thread; writes happen inline as windows fill. I/O errors are sticky:
// the first one is kept, later emits become no-ops, and Close reports
// it.
type WindowWriter struct {
	bw      *bufio.Writer
	mask    uint64
	buf     []Event
	emitted uint64
	err     error
}

// NewWindowWriter returns a windowed streaming tracer writing JSONL to
// w, flushing every window (> 0) events. With no kinds it captures
// DefaultKinds, mirroring NewRecorder.
func NewWindowWriter(w io.Writer, window int, kinds ...Kind) *WindowWriter {
	ww := &WindowWriter{bw: bufio.NewWriter(w), buf: make([]Event, 0, window)}
	if len(kinds) == 0 {
		kinds = DefaultKinds()
	}
	for _, k := range kinds {
		ww.mask |= 1 << k
	}
	return ww
}

// Emit buffers the event if its kind is selected, draining the window
// to the underlying writer when it fills.
func (ww *WindowWriter) Emit(ev Event) {
	if ww.mask&(1<<ev.Kind) == 0 || ww.err != nil {
		return
	}
	ww.buf = append(ww.buf, ev)
	if len(ww.buf) == cap(ww.buf) {
		ww.flush()
	}
}

// flush encodes and clears the current window.
func (ww *WindowWriter) flush() {
	for _, ev := range ww.buf {
		if err := writeEventJSONL(ww.bw, ev); err != nil {
			ww.err = err
			break
		}
	}
	ww.emitted += uint64(len(ww.buf))
	ww.buf = ww.buf[:0]
}

// Emitted reports how many events have been written (not counting the
// still-buffered tail window).
func (ww *WindowWriter) Emitted() uint64 { return ww.emitted }

// Close drains the tail window and flushes the underlying buffered
// writer. It returns the first error seen anywhere in the stream.
func (ww *WindowWriter) Close() error {
	ww.flush()
	if err := ww.bw.Flush(); err != nil && ww.err == nil {
		ww.err = err
	}
	return ww.err
}
