package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/vfs"
)

func TestRunABMTrace(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-preset", "slashdot", "-scale", "0.02", "-k", "15", "-cautious", "5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy:  abm", "final:", "requests sent"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTracePolicyIsRecordName pins the policy name of the single-run
// trace, in -json and in text, to the name every record, digest and
// `-runs 2` summary carries: the factory name, not the configured
// policy's own name (ABM's carries its weights).
func TestTracePolicyIsRecordName(t *testing.T) {
	policyLine := func(out string) string {
		for _, l := range strings.Split(out, "\n") {
			if name, ok := strings.CutPrefix(l, "policy:  "); ok {
				return name[:strings.Index(name, ", budget")]
			}
		}
		t.Fatalf("no policy line in:\n%s", out)
		return ""
	}
	for _, policy := range []string{"abm", "greedy", "random"} {
		flags := []string{"-preset", "slashdot", "-scale", "0.02", "-k", "5", "-cautious", "5", "-policy", policy}
		var text, asJSON, repeated bytes.Buffer
		if err := run(flags, &text); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if err := run(append(flags, "-json"), &asJSON); err != nil {
			t.Fatalf("%s -json: %v", policy, err)
		}
		if err := run(append(flags, "-runs", "2"), &repeated); err != nil {
			t.Fatalf("%s -runs 2: %v", policy, err)
		}
		var trace struct {
			Policy string `json:"policy"`
		}
		if err := json.Unmarshal(asJSON.Bytes(), &trace); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		want := policyLine(repeated.String())
		if want != policy {
			t.Errorf("%s: -runs 2 prints policy %q", policy, want)
		}
		if got := policyLine(text.String()); got != want {
			t.Errorf("%s: text trace prints policy %q, records say %q", policy, got, want)
		}
		if trace.Policy != want {
			t.Errorf("%s: -json trace has policy %q, records say %q", policy, trace.Policy, want)
		}
	}
}

func TestAllPolicies(t *testing.T) {
	for _, policy := range []string{"abm", "greedy", "maxdegree", "pagerank", "random"} {
		var buf bytes.Buffer
		err := run([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "10",
			"-cautious", "5", "-policy", policy,
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if !strings.Contains(buf.String(), "final:") {
			t.Errorf("%s: no final line:\n%s", policy, buf.String())
		}
	}
}

func TestUnknownPolicy(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-policy", "oracle"}, &buf); err == nil {
		t.Error("unknown policy: want error")
	}
}

func TestVerboseShowsRejections(t *testing.T) {
	// With verbose on, the number of printed request lines must equal k
	// (every request shown, accepted or not).
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "12",
		"-cautious", "5", "-v",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if lines != 12 {
		t.Errorf("verbose printed %d request lines, want 12", lines)
	}
}

func TestBadPreset(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-preset", "bad"}, &buf); err == nil {
		t.Error("bad preset: want error")
	}
}

func TestJSONOutput(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "10",
		"-cautious", "5", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Preset  string  `json:"preset"`
		Budget  int     `json:"budget"`
		Benefit float64 `json:"benefit"`
		Steps   []struct {
			User     int     `json:"User"`
			Accepted bool    `json:"Accepted"`
			Gain     float64 `json:"Gain"`
		} `json:"steps"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if decoded.Preset != "slashdot" || decoded.Budget != 10 {
		t.Errorf("decoded %+v", decoded)
	}
	if len(decoded.Steps) != 10 {
		t.Errorf("steps = %d", len(decoded.Steps))
	}
}

// TestTraceIsCellZeroOfGrid pins that the single-run trace is cell
// (0, 0) of the grid the same flags describe: its -json steps and totals
// equal that cell's record in an engine run of `-runs 2`.
func TestTraceIsCellZeroOfGrid(t *testing.T) {
	for _, policy := range []string{"abm", "random"} {
		var buf bytes.Buffer
		if err := run([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "20", "-cautious", "5",
			"-seed", "11", "-policy", policy, "-json",
		}, &buf); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		var trace traceJSON
		if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		cautious := 5
		spec := serv.Spec{
			Preset: "slashdot", Scale: 0.02, Cautious: &cautious,
			Policies: []serv.PolicySpec{{Name: policy, WD: 0.5, WI: 0.5}},
			Networks: 1, Runs: 2, K: 20, Seed: 11,
		}
		protocol, factories, err := spec.Build(nil)
		if err != nil {
			t.Fatalf("%s: Build: %v", policy, err)
		}
		var cell *sim.Record
		err = sim.Run(context.Background(), protocol, factories, func(r sim.Record) {
			if r.Network == 0 && r.Run == 0 {
				cell = &r
			}
		})
		if err != nil || cell == nil {
			t.Fatalf("%s: grid run: %v (cell (0,0) found: %v)", policy, err, cell != nil)
		}
		want := cell.Result
		got, _ := json.Marshal(trace.Steps)
		wantSteps, _ := json.Marshal(want.Steps)
		if trace.Benefit != want.Benefit || trace.Friends != want.Friends ||
			trace.CautiousFriends != want.CautiousFriends || !bytes.Equal(got, wantSteps) {
			t.Errorf("%s: trace benefit %v friends %d (%d cautious), cell (0,0) benefit %v friends %d (%d cautious); steps equal %v",
				policy, trace.Benefit, trace.Friends, trace.CautiousFriends,
				want.Benefit, want.Friends, want.CautiousFriends, bytes.Equal(got, wantSteps))
		}
	}
}

// TestMetricsNamesPerPolicy pins which instruments -metrics prints: every
// policy reports the osn.* environment counters, and abm and greedy (ABM
// with w_I = 0) also report the abm.* work counters.
func TestMetricsNamesPerPolicy(t *testing.T) {
	abmNames := []string{"abm.heap_pops", "abm.stale_skips", "abm.rescores", "abm.dirty_size", "abm.heap_compactions"}
	osnNames := []string{"osn.requests", "osn.accepts", "osn.edges_revealed", "osn.reveal_ns", "osn.sample_realization_ns"}
	for _, policy := range []string{"abm", "greedy", "random"} {
		var buf bytes.Buffer
		if err := run([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "20", "-cautious", "5",
			"-policy", policy, "-metrics",
		}, &buf); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		out := buf.String()
		for _, name := range osnNames {
			if !strings.Contains(out, name) {
				t.Errorf("%s: -metrics lacks %s:\n%s", policy, name, out)
			}
		}
		for _, name := range abmNames {
			if got, want := strings.Contains(out, name), policy != "random"; got != want {
				t.Errorf("%s: -metrics shows %s = %v, want %v:\n%s", policy, name, got, want, out)
			}
		}
	}
}

func TestRepeatedRunsSummary(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "10",
		"-cautious", "5", "-runs", "4", "-workers", "2",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4 realizations", "2 workers", "benefit: mean", "friends: mean", "timing:"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRepeatedRunsDeterministicAcrossWorkers(t *testing.T) {
	// The cell scheduler guarantees the same records regardless of pool
	// size, so the printed summary must be identical too.
	summary := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "10",
			"-cautious", "5", "-policy", "random", "-runs", "6", "-workers", workers,
		}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		// Strip the timing line, which is naturally nondeterministic.
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(l, "timing:") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	serial, parallel := summary("1"), summary("4")
	// Worker count appears in the header; normalize it before comparing.
	serial = strings.ReplaceAll(serial, "1 workers", "N workers")
	parallel = strings.ReplaceAll(parallel, "4 workers", "N workers")
	if serial != parallel {
		t.Errorf("summary differs across worker counts:\n-- workers=1 --\n%s\n-- workers=4 --\n%s", serial, parallel)
	}
}

func TestRepeatedRunsRejectsJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-runs", "3", "-json"}, &buf); err == nil {
		t.Error("-runs with -json: want error")
	}
	if err := run([]string{"-runs", "0"}, &buf); err == nil {
		t.Error("-runs 0: want error")
	}
}

// TestCheckpointResume runs the same Monte-Carlo protocol twice against
// one journal: the resumed invocation must replay every cell instead of
// recomputing and print the identical summary.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "cells.jsonl")
	summary := func(resume bool) string {
		args := []string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "10",
			"-cautious", "5", "-runs", "5", "-checkpoint", ckpt,
		}
		if resume {
			args = append(args, "-resume")
		}
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, l := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(l, "timing:") {
				lines = append(lines, l)
			}
		}
		return strings.Join(lines, "\n")
	}
	first := summary(false)
	second := summary(true)
	if first != second {
		t.Errorf("resumed summary differs:\n-- first --\n%s\n-- resumed --\n%s", first, second)
	}
	// Without -resume an existing journal must be refused, not mixed into.
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "10",
		"-cautious", "5", "-runs", "5", "-checkpoint", ckpt,
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("reusing journal without -resume: err = %v, want refusal", err)
	}
}

// TestCheckpointResumeDigest pins that -digest folds the replayed
// checkpoint records into the digest: a resumed run — whether it
// replays every cell or only half the journal — must print the same
// digest as an uninterrupted run of the same protocol.
func TestCheckpointResumeDigest(t *testing.T) {
	digestOf := func(args ...string) string {
		args = append([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "10",
			"-cautious", "5", "-runs", "5", "-digest",
		}, args...)
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return printedDigest(t, buf.String())
	}

	want := digestOf()

	ckpt := filepath.Join(t.TempDir(), "cells.jsonl")
	if got := digestOf("-checkpoint", ckpt); got != want {
		t.Fatalf("checkpointed digest %s, want %s", got, want)
	}
	// Full replay: every record comes from the journal.
	if got := digestOf("-checkpoint", ckpt, "-resume"); got != want {
		t.Errorf("fully replayed digest %s, want %s", got, want)
	}
	// Partial replay: keep half the journal, recompute the rest.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	if err := os.WriteFile(ckpt, []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := digestOf("-checkpoint", ckpt, "-resume"); got != want {
		t.Errorf("partially replayed digest %s, want %s", got, want)
	}
}

// printedDigest extracts the digest from accurun's "digest:" line.
func printedDigest(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if d, ok := strings.CutPrefix(l, "digest:"); ok {
			return strings.TrimSpace(d)
		}
	}
	t.Fatalf("no digest line in:\n%s", out)
	return ""
}

// TestRosterMatchesSpec pins accurun's flags to the service's grid
// description for the whole Fig. 2 roster: `accurun -runs 4 -digest`
// must print the digest of sim.Run over the serv.Spec with the same
// parameters, which is what an accuserv job or accudist grid computes.
func TestRosterMatchesSpec(t *testing.T) {
	cautious := 5
	for _, policy := range []string{"abm", "greedy", "maxdegree", "pagerank", "random"} {
		var buf bytes.Buffer
		if err := run([]string{
			"-preset", "slashdot", "-scale", "0.02", "-k", "10", "-cautious", "5",
			"-seed", "3", "-policy", policy, "-runs", "4", "-digest",
		}, &buf); err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		spec := serv.Spec{
			Preset: "slashdot", Scale: 0.02, Cautious: &cautious,
			Policies: []serv.PolicySpec{{Name: policy}},
			Networks: 1, Runs: 4, K: 10, Seed: 3,
		}
		protocol, factories, err := spec.Build(nil)
		if err != nil {
			t.Fatalf("%s: Build: %v", policy, err)
		}
		dig := sim.NewRecordDigest()
		if err := sim.Run(context.Background(), protocol, factories, dig.Collect); err != nil {
			t.Fatalf("%s: sim.Run: %v", policy, err)
		}
		if got, want := printedDigest(t, buf.String()), dig.Sum(); got != want {
			t.Errorf("%s: accurun digest %s, spec digest %s", policy, got, want)
		}
	}
}

// TestZeroWeightsMeanDefault pins that -wd 0 -wi 0 reads as the paper's
// balanced ABM weights, as a zero PolicySpec does in a job spec.
func TestZeroWeightsMeanDefault(t *testing.T) {
	digestOf := func(extra ...string) string {
		var buf bytes.Buffer
		args := append([]string{"-k", "10", "-cautious", "5", "-runs", "3", "-digest"}, extra...)
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		return printedDigest(t, buf.String())
	}
	if zero, def := digestOf("-wd", "0", "-wi", "0"), digestOf(); zero != def {
		t.Errorf("-wd 0 -wi 0 digest %s, default weights digest %s", zero, def)
	}
}

func TestCheckpointFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-resume"}, &buf); err == nil {
		t.Error("-resume without -checkpoint: want error")
	}
	if err := run([]string{"-checkpoint", "x.jsonl"}, &buf); err == nil {
		t.Error("-checkpoint on a single run: want error")
	}
}

func TestJournalFlag(t *testing.T) {
	tmp := t.TempDir() + "/trace.journal"
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "8",
		"-cautious", "5", "-journal", tmp,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines != 8 {
		t.Errorf("journal lines = %d, want 8\n%s", lines, data)
	}
}

// TestStoreOutAndQuery pins the result-store path end to end: a
// Monte-Carlo run writes both a columnar store and an aggregated result
// JSON whose digest its -digest line prints; querying the store must reproduce the exact sketch quantiles of
// the live run (the store holds exact float64 benefits, so the replayed
// sketch is byte-identical).
func TestStoreOutAndQuery(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "out.acs")
	outJSON := filepath.Join(dir, "result.json")
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "10",
		"-cautious", "5", "-runs", "6", "-store", store, "-out", outJSON, "-digest",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quantiles: p50") {
		t.Errorf("summary missing quantile line:\n%s", buf.String())
	}

	data, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Records  int    `json:"records"`
		Digest   string `json:"digest"`
		Policies []struct {
			Policy             string `json:"policy"`
			FinalBenefitSketch struct {
				Count         int64 `json:"count"`
				P50, P90, P99 float64
			} `json:"finalBenefitSketch"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("invalid -out JSON: %v\n%s", err, data)
	}
	if res.Records != 6 || len(res.Policies) != 1 || res.Digest == "" {
		t.Fatalf("result = %+v", res)
	}
	if got := printedDigest(t, buf.String()); got != res.Digest {
		t.Errorf("digest line %s, -out digest %s", got, res.Digest)
	}
	live := res.Policies[0]

	var qbuf bytes.Buffer
	if err := run([]string{"query", "-store", store, "-policy", "abm", "-json"}, &qbuf); err != nil {
		t.Fatal(err)
	}
	var q struct {
		Rows     int64 `json:"rows"`
		Meta     map[string]string
		Policies []struct {
			Policy    string `json:"policy"`
			Count     int64  `json:"count"`
			Quantiles []struct {
				Q     float64 `json:"q"`
				Value float64 `json:"value"`
			} `json:"quantiles"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(qbuf.Bytes(), &q); err != nil {
		t.Fatalf("invalid query JSON: %v\n%s", err, qbuf.String())
	}
	if q.Rows != 6 || len(q.Policies) != 1 || q.Policies[0].Count != 6 {
		t.Fatalf("query = %+v", q)
	}
	if q.Meta["preset"] != "slashdot" || q.Meta["runs"] != "6" {
		t.Errorf("meta = %v", q.Meta)
	}
	want := map[float64]float64{0.5: live.FinalBenefitSketch.P50, 0.9: live.FinalBenefitSketch.P90, 0.99: live.FinalBenefitSketch.P99}
	for _, qq := range q.Policies[0].Quantiles {
		if qq.Value != want[qq.Q] {
			t.Errorf("query p%g = %v, want %v (live run)", qq.Q*100, qq.Value, want[qq.Q])
		}
	}

	// Text mode renders a table with the quantile columns.
	var tbuf bytes.Buffer
	if err := run([]string{"query", "-store", store}, &tbuf); err != nil {
		t.Fatal(err)
	}
	for _, wantCol := range []string{"policy", "p50", "p90", "p99", "abm"} {
		if !strings.Contains(tbuf.String(), wantCol) {
			t.Errorf("query table missing %q:\n%s", wantCol, tbuf.String())
		}
	}

	// -where filters rows; a run filter keeps exactly one.
	var wbuf bytes.Buffer
	if err := run([]string{"query", "-store", store, "-where", "run=3", "-json"}, &wbuf); err != nil {
		t.Fatal(err)
	}
	var wq struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(wbuf.Bytes(), &wq); err != nil {
		t.Fatal(err)
	}
	if wq.Rows != 1 {
		t.Errorf("filtered rows = %d, want 1", wq.Rows)
	}
}

func TestQueryFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"query"}, &buf); err == nil {
		t.Error("query without -store: want error")
	}
	store := filepath.Join(t.TempDir(), "x.acs")
	var rbuf bytes.Buffer
	if err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "8",
		"-cautious", "5", "-runs", "2", "-store", store,
	}, &rbuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"query", "-store", store, "-quantiles", "1.5"}, &buf); err == nil {
		t.Error("quantile > 1: want error")
	}
	if err := run([]string{"query", "-store", store, "-where", "banana=1"}, &buf); err == nil {
		t.Error("unknown where key: want error")
	}
	if err := run([]string{"query", "-store", store, "-where", "network"}, &buf); err == nil {
		t.Error("malformed where clause: want error")
	}
	if err := run([]string{"query", "-store", store, "-policy", "ghost"}, &buf); err == nil {
		t.Error("unknown policy filter: want error")
	}
	if err := run([]string{"-store", "x.acs"}, &buf); err == nil {
		t.Error("-store on a single run: want error")
	}
	if err := run([]string{"-out", "x.json"}, &buf); err == nil {
		t.Error("-out on a single run: want error")
	}
}

// TestCheckpointCloseErrorFailsRun: closing the checkpoint journal is its
// last fsync, so a failure there must fail the run instead of exiting 0
// over cells a -resume would not find.
func TestCheckpointCloseErrorFailsRun(t *testing.T) {
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	rec.Fail(vfs.Fault{Kind: vfs.OpSync, Path: "cells.jsonl", Err: syscall.EIO})
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "slashdot", "-scale", "0.02", "-k", "10", "-cautious", "5", "-runs", "3",
		"-checkpoint", filepath.Join(t.TempDir(), "cells.jsonl"),
	}, &buf)
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "close checkpoint journal") {
		t.Fatalf("err = %v, want the journal's close error", err)
	}
}

// TestTooFewCautiousCandidates checks that a preset whose network lacks
// cautious-user candidates for the default count fails the run, with
// the shortfall as its cause (main exits non-zero on any error).
func TestTooFewCautiousCandidates(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-preset", "facebook", "-scale", "0.02", "-k", "5"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "not enough cautious-user candidates") {
		t.Fatalf("err = %v, want the shortfall of cautious-user candidates", err)
	}
}
