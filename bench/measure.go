package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// An untraced invocation makes up to setupProbes extra cold starts of the
// workload's entry point before its rounds, within setupProbeBudget, to
// steady the set-up median: sixteen for the millisecond HTTP start-ups,
// four of resume-local's one-second journal loads.
const (
	setupProbes      = 16
	setupProbeBudget = 4 * time.Second
)

// minTraceCoverage is the share of the traced wall time the timed stages
// must cover: the stages have to add up to the whole.
const minTraceCoverage = 0.9

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one invocation measured.
type report struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Correct    bool       `json:"correct"`
	Attempted  int        `json:"attempted"` // cells
	Failed     int        `json:"failed"`    // cells
	Errors     []string   `json:"errors,omitempty"`
	Rounds     []*round   `json:"rounds"`
	SetupS     []float64  `json:"setupS,omitempty"` // every set-up sample
	Metrics    []metric   `json:"metrics"`
}

// measure builds the programs under test and runs cfg's workload: timed
// rounds for the end-to-end metrics, or one round plus a traced pass for
// the per-layer ones. It returns an error only when it could not measure
// at all; wrong outputs are reported in the report.
func measure(ctx context.Context, cfg config) (*report, error) {
	buildDir, err := filepath.Abs(filepath.Join(cfg.root, ".bench_build"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	bin := filepath.Join(work, "bin")
	if err := buildPrograms(ctx, cfg.root, bin); err != nil {
		return nil, err
	}
	grid := cfg.wl.grid
	grid.Seed = cfg.seed
	r := &runner{cfg: cfg, bin: bin, dir: work, grid: grid}
	rep := &report{
		Provenance: newProvenance(cfg.root),
		Workload:   cfg.wl.name,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
	}
	fmt.Fprintf(cfg.log, "bench: %s seed %d via %s, %d×%d grid, k=%d, roster %v\n",
		cfg.wl.name, cfg.seed, cfg.wl.entry, grid.Networks, grid.Runs, grid.K, policyNames(grid))
	fmt.Fprintf(cfg.log, "provenance: %s\n", rep.Provenance)
	if cfg.wl.entry == entryLocal {
		if err := r.fillPrefill(ctx); err != nil {
			return nil, fmt.Errorf("pre-fill journal: %w", err)
		}
	}
	if cfg.trace {
		err = r.measureTrace(ctx, rep)
	} else {
		err = r.measureRounds(ctx, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.Correct = len(rep.Errors) == 0 && rep.Failed == 0
	return rep, nil
}

// runRound runs and checks one round, folding it into rep.
func (r *runner) runRound(ctx context.Context, rep *report) *round {
	rd := r.round(ctx)
	var first *round
	for _, prev := range rep.Rounds {
		if prev.Error == "" {
			first = prev
			break
		}
	}
	rep.Attempted += rd.Cells
	var bad []string
	if rd.Error != "" {
		bad = []string{rd.Error}
	} else {
		bad = r.checkRound(rd, first, len(rep.Rounds))
	}
	rep.Rounds = append(rep.Rounds, rd)
	if err := os.RemoveAll(rd.dir); err != nil {
		bad = append(bad, err.Error())
	}
	if len(bad) > 0 {
		rep.Failed += rd.Cells
		for _, b := range bad {
			rep.Errors = append(rep.Errors, fmt.Sprintf("round %d: %s", len(rep.Rounds)-1, b))
		}
		rd.Error = strings.Join(bad, "; ")
	}
	status := "ok"
	if rd.Error != "" {
		status = "FAILED: " + rd.Error
	}
	fmt.Fprintf(r.cfg.log, "round %d: %d cells in %.3fs (setup %.4fs, cpu %.2fs, rss %.1f MB, %d bytes), digest %s: %s\n",
		len(rep.Rounds)-1, rd.Cells, rd.WindowS, rd.SetupS, rd.CPUS, rd.PeakRSSMB, rd.DurableBytes, rd.Digest, status)
	return rd
}

// measureRounds repeats untraced rounds for cfg.seconds (at least one)
// and reports the end-to-end metrics as medians over the good rounds.
func (r *runner) measureRounds(ctx context.Context, rep *report) error {
	for start := time.Now(); len(rep.SetupS) < setupProbes && time.Since(start) < setupProbeBudget; {
		s, err := r.probeSetup(ctx)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		rep.SetupS = append(rep.SetupS, s)
	}
	start := time.Now()
	for {
		r.runRound(ctx, rep)
		elapsed := time.Since(start)
		next := elapsed / time.Duration(len(rep.Rounds))
		if elapsed+next > r.cfg.seconds {
			break
		}
		if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < 2*next+10*time.Second {
			break
		}
	}
	var rate, cpu, rss, kb []float64
	for _, rd := range rep.Rounds {
		if rd.Error != "" {
			continue
		}
		cells := float64(rd.Cells)
		rate = append(rate, cells/rd.WindowS)
		cpu = append(cpu, rd.CPUS*1000/cells)
		rss = append(rss, rd.PeakRSSMB)
		kb = append(kb, float64(rd.DurableBytes)/1024/cells)
		rep.SetupS = append(rep.SetupS, rd.SetupS)
	}
	rep.Metrics = []metric{
		{"cells_per_s", median(rate), "cells/s"},
		{"cpu_ms_per_cell", median(cpu), "ms"},
		{"peak_rss_mb", median(rss), "MB"},
		{"durable_kb_per_cell", median(kb), "KB"},
		{"ok_cell_ratio", float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"},
		{"setup_s", median(rep.SetupS), "s"},
	}
	return nil
}

// measureTrace runs one untraced round, then the traced replica of the
// same grid, checks that both (and every other source) agree on the
// digest and that the timed stages cover the traced wall time, and
// reports the per-layer metrics.
func (r *runner) measureTrace(ctx context.Context, rep *report) error {
	rd := r.runRound(ctx, rep)
	p, err := r.traced(ctx)
	rep.Attempted += r.cfg.wl.newCells()
	if err != nil {
		rep.Failed += r.cfg.wl.newCells()
		rep.Errors = append(rep.Errors, "traced pass: "+err.Error())
		return nil
	}
	t := p.t
	var bad []string
	if p.records != r.grid.records() {
		bad = append(bad, fmt.Sprintf("traced pass collected %d records, want %d", p.records, r.grid.records()))
	}
	if rd.Error == "" && p.digest != rd.Digest {
		bad = append(bad, fmt.Sprintf("traced digest %s differs from the untraced round's %s", p.digest, rd.Digest))
	}
	for src, d := range p.others {
		if d != p.digest {
			bad = append(bad, fmt.Sprintf("%s digest %s differs from the traced pass's %s", src, d, p.digest))
		}
	}
	bad = append(bad, r.checkExpected(p.records, p.digest)...)
	coverage := float64(t.stageSum()) / float64(p.wall)
	if coverage < minTraceCoverage {
		bad = append(bad, fmt.Sprintf("timed stages cover %.1f%% of the traced wall time, want ≥ %.0f%%", 100*coverage, 100*minTraceCoverage))
	}
	if len(bad) > 0 {
		rep.Failed += r.cfg.wl.newCells()
		for _, b := range bad {
			rep.Errors = append(rep.Errors, "traced pass: "+b)
		}
	}
	fmt.Fprintf(r.cfg.log, "trace: %d cells in %.3fs, stages cover %.1f%%, digest %s\n",
		t.cells, p.wall.Seconds(), 100*coverage, p.digest)
	rep.Metrics = traceMetrics(p, rd, coverage)
	return nil
}

// tracedPolicies are the policies whose share of the traced time is
// reported on every workload (0 where the roster lacks one).
var tracedPolicies = []string{"abm", "maxdegree", "pagerank", "random"}

// traceMetrics derives the per-layer metrics from a traced pass and the
// untraced round before it (entry-layer readings).
func traceMetrics(p *tracePass, rd *round, coverage float64) []metric {
	t := p.t
	wall := float64(p.wall)
	share := func(d time.Duration) float64 { return float64(d) / wall }
	var init, sel, obs stage
	var callbacks, coreTime time.Duration // callbacks run inside t.run; coreTime adds construction
	for _, pt := range t.policies {
		init.total += pt.build.total + pt.init.total
		init.n += pt.init.n
		sel.total += pt.sel.total
		sel.n += pt.sel.n
		obs.total += pt.obs.total
		obs.n += pt.obs.n
		callbacks += pt.init.total + pt.sel.total + pt.obs.total
		coreTime += pt.total()
	}
	osnTime := t.setup.total + t.realize.total + t.run.total - callbacks
	request := 0.0
	if t.requests > 0 {
		request = float64(t.run.total-callbacks) / float64(t.requests) / float64(time.Microsecond)
	}
	ms, us := time.Millisecond, time.Microsecond
	m := []metric{
		{"gen.generate_ms", t.gen.mean(ms), "ms"},
		{"gen.share", share(t.gen.total), "ratio"},
		{"osn.setup_ms", t.setup.mean(ms), "ms"},
		{"osn.realize_ms", t.realize.mean(ms), "ms"},
		{"osn.request_us", request, "us"},
		{"osn.share", share(osnTime), "ratio"},
		{"core.init_ms", init.mean(ms), "ms"},
		{"core.select_us", sel.mean(us), "us"},
		{"core.observe_us", obs.mean(us), "us"},
		{"core.requests", float64(t.requests), "count"},
		{"core.share", share(coreTime), "ratio"},
	}
	for _, name := range tracedPolicies {
		var d time.Duration
		if pt, ok := t.policies[name]; ok {
			d = pt.total()
		}
		m = append(m, metric{"core." + name + ".share", share(d), "ratio"})
	}
	simTime := t.summary.total + t.digest.total + t.digestSum.total + t.commit.total + t.load.total
	m = append(m,
		metric{"sim.summary_collect_us", t.summary.mean(us), "us"},
		metric{"sim.digest_collect_us", t.digest.mean(us), "us"},
		metric{"sim.digest_sum_ms", t.digestSum.mean(ms), "ms"},
		metric{"sim.durable_us_p50", float64(t.durablePercentile(0.5)) / float64(us), "us"},
		metric{"sim.durable_us_p90", float64(t.durablePercentile(0.9)) / float64(us), "us"},
		metric{"sim.durable_kb_per_cell", float64(t.durableBytes) / 1024 / float64(t.cells), "KB"},
		metric{"sim.journal_load_s", p.load.Seconds(), "s"},
		metric{"sim.journal_replay_s", p.replay.Seconds(), "s"},
		metric{"sim.share", share(simTime), "ratio"},
		metric{"stats.share", share(t.store.total), "ratio"},
		metric{"dist.share", share(t.lease.total + t.upload.total + t.result.total), "ratio"},
		metric{"dist.duplicate_uploads", float64(rd.distDuplicate), "count"},
		metric{"dist.ranges_reassigned", float64(rd.distReassigned), "count"},
		metric{"serv.overhead_share", rd.servOverheadShare, "ratio"},
		metric{"serv.jobs_retried", float64(rd.servRetried), "count"},
		metric{"trace.wall_s", p.wall.Seconds(), "s"},
		metric{"trace.stage_sum_ratio", coverage, "ratio"},
		metric{"trace.timer_overhead_s", (time.Duration(t.timers) * timerCost()).Seconds(), "s"},
	)
	return m
}

func policyNames(g spec) []string {
	names := make([]string, len(g.Policies))
	for i, p := range g.Policies {
		names[i] = p.Name
	}
	return names
}

// median returns the median of v (0 for none).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// print writes every metric with its unit, then the one-line JSON result
// as the last line.
func (rep *report) print(w io.Writer) {
	metrics := make(map[string]map[string]any, len(rep.Metrics))
	for _, m := range rep.Metrics {
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(w, "%-28s %14.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// provenance records where and from what a report was measured.
type provenance struct {
	NumCPU     int    `json:"numCpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	GitCommit  string `json:"gitCommit"`
	StartedAt  string `json:"startedAt"`
}

func newProvenance(root string) provenance {
	return provenance{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GitCommit:  gitCommit(root),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
}

func (p provenance) String() string {
	return fmt.Sprintf("%d CPU(s), GOMAXPROCS %d, %s, %q, commit %s", p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.CPUModel, p.GitCommit)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from root/.git without running git (which would
// search directories above a checkout that is not a repository).
func gitCommit(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
