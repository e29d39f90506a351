package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"localadvice/internal/server"
)

// cmdServe runs the HTTP serving layer (internal/server) until SIGTERM or
// SIGINT, then drains gracefully: the listener closes immediately, in-flight
// requests get a grace period to finish.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
	cacheMB := fs.Int("cache-mb", 64, "artifact cache budget in MiB (-1 disables caching)")
	maxInflight := fs.Int("max-inflight", 0, "in-flight request bound before 429 shedding (0 = 4 x GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request deadline")
	maxBodyMB := fs.Int("max-body-mb", 8, "request body size bound in MiB")
	maxNodes := fs.Int("max-nodes", 200_000, "largest accepted graph (nodes)")
	storeDir := fs.String("store-dir", "", "persistent artifact store directory (empty = no persistence)")
	grace := fs.Duration("grace", 10*time.Second, "shutdown grace period for in-flight requests")
	workers := workersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	applyWorkers(*workers)

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	srv, err := server.New(server.Config{
		CacheBytes:     cacheBytes,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		MaxBodyBytes:   int64(*maxBodyMB) << 20,
		MaxNodes:       *maxNodes,
		StoreDir:       *storeDir,
	})
	if err != nil {
		return err
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The smoke script and loadgen poll for this exact line to learn the
	// bound address (needed when -addr ends in :0).
	fmt.Printf("locad serve: listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop()
		fmt.Fprintln(os.Stderr, "locad serve: shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		return <-errc
	}
}
