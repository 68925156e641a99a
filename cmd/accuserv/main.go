// Command accuserv serves Monte-Carlo simulation grids over HTTP.
//
// Jobs are submitted as JSON specs, run in submission order by a worker
// pool, and checkpointed per cell so that a killed or drained server
// resumes every interrupted job from its last durable cell after restart.
// Progress is polled from the job document; results, metrics and the
// admin surface (list/cancel/resume) are plain JSON endpoints.
//
// A job whose execution fails goes straight to failed; its checkpoint
// keeps every committed cell, and the admin resume endpoint completes it
// (the service's counterpart of accurun -resume).
//
// On SIGINT/SIGTERM the server stops accepting jobs, preempts running
// ones (they requeue at their place and resume from their checkpoints),
// waits for the workers to park, then shuts the listener down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/accu-sim/accu/internal/serv"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "accuserv: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("accuserv", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8470", "listen address")
		dataDir      = fs.String("data", "accuserv-data", "state directory (job documents and checkpoints)")
		workers      = fs.Int("workers", 0, "concurrent jobs (0 = one at a time)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "max wait for running jobs to checkpoint and park on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	logger := log.New(stderr, "accuserv: ", log.LstdFlags)

	srv, err := serv.New(serv.Config{
		Dir:     *dataDir,
		Workers: *workers,
		Logf:    logger.Printf,
	})
	if err != nil {
		return err
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s (data %s)", *addr, *dataDir)

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of waiting for drain

	logger.Printf("signal received, draining (timeout %s)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		logger.Printf("drain: %v", err)
	} else {
		logger.Printf("drained; all workers parked")
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	return nil
}
