// Command accudist runs one Monte-Carlo grid distributed across
// machines: a coordinator that leases cell ranges over HTTP, and workers
// that execute leased ranges with the stock engine and stream completed
// cells back.
//
// Coordinator (owns the durable cell journal and the aggregation):
//
//	accudist -coordinator -addr 127.0.0.1:8471 -spec grid.json -dir run1 -out result.json
//
// grid.json is the JSON spec an accuserv job takes (serv.Spec).
//
// Workers (any number, anywhere that can reach the coordinator):
//
//	accudist -worker -join http://127.0.0.1:8471 -id w1
//
// The coordinator exits once every cell of the grid is durable, writing
// {"result": ..., "metrics": ...} to -out. Its result digest is
// bit-identical to `accurun -digest` of the same parameters, no matter
// how many workers ran, died, or duplicated work along the way. Kill the
// coordinator and restart it with -resume to continue from the journal.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/accu-sim/accu/internal/dist"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/serv"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "accudist: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("accudist", flag.ContinueOnError)
	var (
		coordinator = fs.Bool("coordinator", false, "run the coordinator")
		worker      = fs.Bool("worker", false, "run a worker")

		// Coordinator flags.
		addr      = fs.String("addr", "127.0.0.1:8471", "coordinator listen address")
		specPath  = fs.String("spec", "", "grid spec JSON file, an accuserv job spec (required)")
		dir       = fs.String("dir", "accudist-data", "coordinator state directory (cell journal)")
		resume    = fs.Bool("resume", false, "resume an existing journal in -dir")
		rangeSize = fs.Int("range", 0, "cells per lease (0 = default 16)")
		leaseTTL  = fs.Duration("lease", 0, "lease TTL without durable progress (0 = default 30s)")
		linger    = fs.Duration("linger", 2*time.Second, "serve the done signal this long after completion before exiting")
		outPath   = fs.String("out", "", "write {result, metrics} JSON here on completion")

		// Worker flags.
		join     = fs.String("join", "", "coordinator base URL (worker mode)")
		id       = fs.String("id", "", "worker ID (default host-pid)")
		poll     = fs.Duration("poll", 500*time.Millisecond, "lease poll interval")
		throttle = fs.Duration("throttle", 0, "sleep per completed cell (testing straggler behavior)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == *worker {
		return fmt.Errorf("pick exactly one of -coordinator or -worker")
	}

	logger := log.New(os.Stderr, "accudist: ", log.LstdFlags)

	if *worker {
		if *join == "" {
			return fmt.Errorf("-worker requires -join")
		}
		wid := *id
		if wid == "" {
			host, _ := os.Hostname()
			wid = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
		defer stop()
		w := &dist.Worker{
			Coordinator:  strings.TrimRight(*join, "/"),
			ID:           wid,
			PollInterval: *poll,
			Throttle:     *throttle,
			Logf:         logger.Printf,
		}
		return w.Run(ctx)
	}

	spec, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	reg := obs.New()
	coord, err := dist.New(dist.Config{
		Spec:      spec,
		Dir:       *dir,
		Resume:    *resume,
		RangeSize: *rangeSize,
		LeaseTTL:  *leaseTTL,
		Metrics:   reg,
		Logf:      logger.Printf,
	})
	if err != nil {
		return err
	}

	// Catch signals before serving: once /healthz answers, a SIGTERM must
	// reach the graceful path below, or the default handler kills the
	// process before coord.Close's final journal fsync.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: coord.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	logger.Printf("coordinating %d cells on %s (dir %s)", spec.Networks*spec.Runs, *addr, *dir)

	select {
	case err := <-serveErr:
		// The close error still matters on this path: it is the last
		// fsync of the cell journal, and a swallowed failure would let
		// -resume silently re-run cells that were reported durable.
		if cerr := coord.Close(); cerr != nil {
			return fmt.Errorf("serve: %w (journal close: %w)", err, cerr)
		}
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		logger.Printf("signal received; journal is durable, restart with -resume to continue")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutdownCtx)
		return coord.Close()
	case <-coord.Done():
	}

	// Let parked workers observe done=true on their next poll before the
	// listener goes away.
	time.Sleep(*linger)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)

	res, err := coord.Result()
	if cerr := coord.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	payload := struct {
		Result  *serv.Result  `json:"result"`
		Metrics *obs.Snapshot `json:"metrics"`
	}{Result: res, Metrics: reg.Snapshot()}
	if *outPath != "" {
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "complete: %d records, digest %s\n", res.Records, res.Digest)
	return nil
}

// loadSpec reads the grid spec file: the same JSON document an accuserv
// job takes, so one file drives both.
func loadSpec(path string) (serv.Spec, error) {
	if path == "" {
		return serv.Spec{}, fmt.Errorf("-coordinator requires -spec")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return serv.Spec{}, err
	}
	var spec serv.Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return serv.Spec{}, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return spec, nil
}
