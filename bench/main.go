// Command bench is the repository's end-to-end and per-layer benchmark.
//
// It builds accurun, accuserv and accudist from the checkout it runs in,
// drives one workload through those real binaries (closed loop: one grid
// outstanding at a time, rounds repeated for -seconds) and prints every
// end-to-end metric with its unit. With -trace it instead runs one
// untraced round plus an in-process replica of the same grid through the
// public accu facade, timing every call into every layer, and prints the
// per-layer metrics. The last line of standard output is always one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any output of the programs under test was wrong.
//
// Run it from the repository root (the wrapper keeps every build product
// under .bench_build):
//
//	bash bench/run.sh --workload fig2-serv --seed 11 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metrics and how to compare
// two commits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// defaultSeed is the seed whose record counts and digests
// bench/expected.json pins.
const defaultSeed = 11

// engineThreads is the number of engine threads every workload uses; on
// fewer CPUs the numbers would measure time slicing, not the code.
const engineThreads = 2

// runTimeout bounds one invocation, so a hung program under test is
// killed and reported instead of stalling the caller.
const runTimeout = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], suite{root: ".", workloads: workloads, expected: "bench/expected.json"}, os.Stdout, os.Stderr))
}

// suite is what an invocation measures: the checkout whose programs it
// builds, the workloads it can run and the file pinning their results.
type suite struct {
	root      string
	workloads []workload
	expected  string // path of the expectations file
}

// run parses args, measures one workload of s and prints the result; it
// returns the process exit code.
func run(args []string, s suite, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(s.names(), ", "))
		seed    = fs.Uint64("seed", defaultSeed, "seed the workload's grid is generated from")
		seconds = fs.Int("seconds", 20, "measure untraced rounds for this many seconds (at least one round)")
		trace   = fs.Bool("trace", false, "report per-layer metrics from a traced in-process pass instead of end-to-end metrics")
		out     = fs.String("out", "", "also write the full report (provenance, rounds, metrics) as JSON to this file")
	)
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return 2
	}
	wl, ok := s.workload(*name)
	if !ok || fs.NArg() != 0 || *seconds < 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s) and no positional arguments\n", strings.Join(s.names(), ", "))
		return 2
	}
	if n := runtime.NumCPU(); n < engineThreads {
		fmt.Fprintf(stderr, "bench: %d CPU(s) available, the workloads need %d engine threads; refusing to report time-sliced numbers\n", n, engineThreads)
		return 1
	}
	expected, err := loadExpected(s.expected)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rep, err := measure(ctx, config{
		root:     s.root,
		wl:       wl,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace,
		expected: expected,
		log:      stdout,
	})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench: write -out:", err)
			return 1
		}
	}
	rep.print(stdout)
	if !rep.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d cell(s) failed or were wrong:\n  %s\n", rep.Failed, rep.Attempted, strings.Join(rep.Errors, "\n  "))
		return 1
	}
	return 0
}

// joinTraceValue rewrites "-trace 0" / "--trace 1" into "-trace=0" so the
// boolean flag also accepts a separate value argument.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// expectation pins one workload's result at defaultSeed.
type expectation struct {
	Records int    `json:"records"`
	Digest  string `json:"digest"`
}

// loadExpected reads the per-workload expectations at defaultSeed.
func loadExpected(path string) (map[string]expectation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expectations: %w", err)
	}
	var doc struct {
		Seed      uint64                 `json:"seed"`
		Workloads map[string]expectation `json:"workloads"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if doc.Seed != defaultSeed {
		return nil, fmt.Errorf("%s pins seed %d, want %d", path, doc.Seed, defaultSeed)
	}
	return doc.Workloads, nil
}

// config is one invocation's settings.
type config struct {
	root     string // repository root holding cmd/ and bench/
	wl       workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	expected map[string]expectation // by workload name, at defaultSeed
	log      io.Writer              // progress lines
}
