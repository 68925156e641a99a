package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// root is the repository checkout the tests build from.
const root = ".."

// shrunk returns the benchmark's workloads on grids small enough for a
// smoke test, keeping each one's entry point, preset and roster.
func shrunk() []workload {
	out := make([]workload, 0, len(workloads))
	for _, w := range workloads {
		g := &w.grid
		switch w.entry {
		case entryServ:
			g.Networks, g.Runs, g.K = 2, 3, 10
		case entryDist:
			g.Networks, g.Runs, g.K = 2, 20, 10
		case entryLocal:
			g.Runs, g.K, w.prefill = 40, 20, 20
		}
		out = append(out, w)
	}
	return out
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func metricNames(rep *report) []string {
	var names []string
	for _, m := range rep.Metrics {
		names = append(names, m.Name)
	}
	sort.Strings(names)
	return names
}

// TestWorkloadsSmoke runs every workload on a shrunken grid through the
// real programs and through the traced replica, and requires correct
// results, one digest across both paths, and exactly the metric names
// BENCHMARK.json declares.
func TestWorkloadsSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, wl := range shrunk() {
		t.Run(wl.name, func(t *testing.T) {
			cfg := config{root: root, wl: wl, seed: 5, log: &bytes.Buffer{}}
			plain, err := measure(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.trace = true
			traced, err := measure(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{plain, traced} {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v failed=%d/%d: %v\n%s", rep.Trace, rep.Correct, rep.Failed, rep.Attempted, rep.Errors, cfg.log)
				}
			}
			if a, b := plain.Rounds[0].Digest, traced.Rounds[0].Digest; a == "" || a != b {
				t.Errorf("untraced digest %q, traced invocation's round digest %q", a, b)
			}
			if got := metricNames(plain); !slices.Equal(got, endToEnd) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, endToEnd)
			}
			if got := metricNames(traced); !slices.Equal(got, perLayer) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, perLayer)
			}
		})
	}
}

// TestWrongExpectedDigestFails pins a wrong digest for the default seed
// and requires the command to report the run incorrect and exit non-zero.
func TestWrongExpectedDigestFails(t *testing.T) {
	wl := shrunk()[0]
	pins, err := json.Marshal(map[string]any{
		"seed":      defaultSeed,
		"workloads": map[string]expectation{wl.name: {Records: wl.grid.records(), Digest: strings.Repeat("0", 64)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	expected := filepath.Join(t.TempDir(), "expected.json")
	if err := os.WriteFile(expected, pins, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", wl.name, "--seconds", "0", "--trace", "0"},
		suite{root: root, workloads: []workload{wl}, expected: expected}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("exit 0 with a wrong pinned digest\n%s%s", stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, stdout.String())
	}
	if len(last) != 4 || string(last["correct"]) != "false" || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Errorf("last line %s, want exactly correct=false, attempted, failed, metrics", lines[len(lines)-1])
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--trace", "1", "-seed", "3", "-trace", "--trace", "0"})
	want := []string{"--trace=1", "-seed", "3", "-trace", "--trace=0"}
	if !slices.Equal(got, want) {
		t.Errorf("joinTraceValue = %q, want %q", got, want)
	}
}

func TestCellKey(t *testing.T) {
	for _, tc := range []struct {
		line     string
		net, run int
		ok       bool
	}{
		{`{"network":12,"run":345,"records":[]}`, 12, 345, true},
		{`{"network":0,"run":0,"records":[]}`, 0, 0, true},
		{`{"run":1,"network":2}`, 0, 0, false},
		{`{"network":,"run":1}`, 0, 0, false},
	} {
		net, run, ok := cellKey([]byte(tc.line))
		if ok != tc.ok || (ok && (net != tc.net || run != tc.run)) {
			t.Errorf("cellKey(%s) = %d, %d, %v; want %d, %d, %v", tc.line, net, run, ok, tc.net, tc.run, tc.ok)
		}
	}
}
