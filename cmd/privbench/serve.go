package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"provirt/internal/harness"
	"provirt/internal/obs"
	"provirt/internal/resultstore"
	"provirt/internal/serve"
)

// shutdownTimeout bounds how long graceful shutdown waits for
// in-flight requests before forcing connections closed.
const shutdownTimeout = 10 * time.Second

// shutdownSignal returns a channel that closes on the first SIGINT or
// SIGTERM. The handler uninstalls itself after that, so a second
// signal kills the process the default way — the escape hatch when a
// drain hangs.
func shutdownSignal() <-chan struct{} {
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		signal.Stop(sigc)
		close(stop)
	}()
	return stop
}

// serveUntil serves h on ln until stop closes, then shuts down
// gracefully: the listener stops accepting, in-flight requests get up
// to timeout to finish, then connections are forced closed. A clean
// drain returns nil; Serve failures (other than the shutdown-induced
// ErrServerClosed) pass through.
func serveUntil(ln net.Listener, h http.Handler, stop <-chan struct{}, timeout time.Duration) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-stop:
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		return err
	}
	return nil
}

// runServer is the -serve mode: instead of one batch run, experiments
// execute on demand over HTTP with content-addressed caching (see
// internal/serve). Blocks until SIGINT/SIGTERM, then drains.
func runServer(addr, storeDir string, workers, cacheEntries int) error {
	reg := obs.NewRegistry()
	harness.EnableObs(reg)
	serve.EnableObs(reg)

	version := resultstore.CodeVersion()
	store, err := resultstore.Open(storeDir, version, cacheEntries)
	if err != nil {
		return err
	}
	srv := serve.New(store, version, workers)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		store.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "privbench: serving /v1/runs, /v1/experiments, /metrics on http://%s\n", ln.Addr())
	fmt.Fprintf(os.Stderr, "privbench: result store %s (code version %s)\n", storeDir, version)
	err = serveUntil(ln, srv.Handler(obs.NewHandler(reg)), shutdownSignal(), shutdownTimeout)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}
