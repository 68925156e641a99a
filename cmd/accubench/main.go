// Command accubench regenerates the paper's tables and figures.
//
// Usage:
//
//	accubench [flags] <experiment>...
//	accubench -list
//	accubench all                 # run every experiment
//
// Experiments: table1, fig2 ... fig7, thm1, ext-soft, ext-batch, and
// claims (the executable checklist of the paper's qualitative claims).
// Use -list for the full roster.
//
// The default configuration is laptop-scale; pass -scale 1 -networks 100
// -runs 30 -k 500 -cautious 100 for the paper's full protocol.
// One invocation simulates each grid once (claims reads Fig. 2's and
// Fig. 4's, Fig. 7 Fig. 6's) and -checkpoint DIR journals it once, at
// DIR/<grid>.jsonl.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	accu "github.com/accu-sim/accu"
	"github.com/accu-sim/accu/internal/exp"
	"github.com/accu-sim/accu/internal/prof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "accubench:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("accubench", flag.ContinueOnError)
	var (
		list     = fs.Bool("list", false, "list available experiments and exit")
		asJSON   = fs.Bool("json", false, "emit reports as a JSON array instead of text")
		verbose  = fs.Bool("v", false, "log experiment progress and timings to stderr")
		scale    = fs.Float64("scale", 0.03, "network scale factor in (0, 1]")
		networks = fs.Int("networks", 2, "sample networks per experiment (paper: 100)")
		runs     = fs.Int("runs", 3, "runs per network (paper: 30)")
		k        = fs.Int("k", 0, "friend-request budget (0 = derive from scale; paper: 500)")
		cautious = fs.Int("cautious", 0, "cautious users per network (0 = derive; paper: 100)")
		datasets = fs.String("datasets", "", "comma-separated preset names (default: all four)")
		wd       = fs.Float64("wd", 0.5, "ABM direct-benefit weight w_D")
		wi       = fs.Float64("wi", 0.5, "ABM indirect-benefit weight w_I")
		seed     = fs.Uint64("seed", 20191243, "root random seed")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")

		checkpoint = fs.String("checkpoint", "", "journal completed Monte-Carlo cells under this directory, one journal per grid (DIR/<grid>.jsonl)")
		resume     = fs.Bool("resume", false, "reopen journals in the -checkpoint directory and compute only missing cells")

		metrics    = fs.Bool("metrics", false, "collect engine metrics and print a table after each report, covering the cells that report simulated (a grid an earlier report ran is not simulated again)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		pprofAddr  = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.Start(prof.Options{CPUProfile: *cpuprofile, MemProfile: *memprofile, PprofAddr: *pprofAddr})
	if err != nil {
		return err
	}
	defer stopProf()
	if *list {
		for _, id := range accu.Experiments() {
			fmt.Fprintln(out, id)
		}
		return nil
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("no experiment given (try -list, or: accubench all)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = accu.Experiments()
	}

	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	cfg := accu.ExperimentConfig{
		Scale:         *scale,
		Networks:      *networks,
		Runs:          *runs,
		K:             *k,
		NumCautious:   *cautious,
		Weights:       accu.Weights{WD: *wd, WI: *wi},
		Seed:          accu.NewSeed(*seed, *seed^0x9e3779b97f4a7c15),
		Workers:       *workers,
		CheckpointDir: *checkpoint,
		Resume:        *resume,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}
	// The pool is sized per (network, run) cell; surface a clamp up front
	// instead of silently running with fewer workers than asked.
	probe := accu.Protocol{Networks: *networks, Runs: *runs, Workers: *workers}
	if resolved, clamped := probe.ResolveWorkers(); clamped {
		fmt.Fprintf(os.Stderr, "accubench: -workers %d exceeds the %d networks × %d runs cell grid; running with %d workers\n",
			*workers, *networks, *runs, resolved)
	}
	progressing := false
	if *verbose {
		cfg.OnProgress = func(p accu.Progress) {
			fmt.Fprintf(os.Stderr, "\raccubench: %d/%d cells (%s net %d run %d)   ", p.Done, p.Total, p.Policy, p.Network, p.Run)
			progressing = p.Done < p.Total
		}
	}
	endProgress := func() {
		if progressing {
			fmt.Fprintln(os.Stderr)
			progressing = false
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *metrics {
		cfg.Metrics = accu.NewMetrics()
	}
	var reports []*accu.Report
	start := time.Now()
	err = exp.Run(ctx, ids, cfg, func(rep *accu.Report) {
		endProgress()
		if *verbose {
			fmt.Fprintf(os.Stderr, "accubench: %s done in %v\n", rep.ID, time.Since(start).Round(time.Millisecond))
			start = time.Now()
		}
		if *asJSON {
			reports = append(reports, rep)
			return
		}
		fmt.Fprintln(out, rep.String())
		if snap := rep.Metrics(); !snap.Empty() {
			fmt.Fprintf(out, "-- %s metrics --\n%s\n", rep.ID, snap.Render())
		}
	})
	endProgress()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return fmt.Errorf("encode reports: %w", err)
		}
	}
	return nil
}
