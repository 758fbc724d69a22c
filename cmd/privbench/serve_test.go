package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// Satellite: the launcher's HTTP server shuts down gracefully — the
// drain lets an in-flight request finish, then the listener is gone.
func TestServeUntilDrainsInflightRequests(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inHandler := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		time.Sleep(50 * time.Millisecond) // keep the request in flight across the stop
		io.WriteString(w, "drained ok")
	})
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- serveUntil(ln, h, stop, 5*time.Second) }()

	type reply struct {
		body []byte
		err  error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			got <- reply{nil, err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- reply{body, err}
	}()

	// Fire the shutdown while the request is inside the handler.
	<-inHandler
	close(stop)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if string(r.body) != "drained ok" {
		t.Fatalf("in-flight request body %q", r.body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("graceful drain returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serveUntil did not return after stop")
	}
	// The listener is closed: new connections must be refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestServeUntilReportsServeErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln.Close() // Serve on a closed listener fails immediately
	stop := make(chan struct{})
	if err := serveUntil(ln, http.NotFoundHandler(), stop, time.Second); err == nil {
		t.Fatal("serveUntil swallowed the Serve error")
	}
}
