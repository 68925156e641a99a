// Command accurun executes a single adaptive attack with a chosen policy
// and prints the request-by-request trace — useful for inspecting how ABM
// courts cautious users.
//
// Usage:
//
//	accurun -preset slashdot -scale 0.02 -policy abm -k 50 [-wd 0.5 -wi 0.5]
//
// Policies: abm, greedy, maxdegree, pagerank, random. The flags describe
// a serv.Spec (the accuserv job payload and the accudist -spec file) with
// one network, and both modes run the protocol that spec builds through
// the Monte-Carlo engine, so a spec's ABM default applies here too: -wd 0
// -wi 0 means the paper's balanced weights. The trace is the grid's cell
// (0, 0): `accurun -seed S` prints the attack that `accurun -runs N
// -seed S` records for network 0, run 0, for any N.
//
// With -runs N (N > 1) accurun instead runs every cell of the
// single-network protocol — N independent realizations of one network,
// fanned out over -workers — and prints summary statistics (mean, std,
// exact min/max and sketch-backed p50/p90/p99). This is the "one dataset,
// many repetitions" shape the cell-level scheduler parallelizes. In that
// mode -store writes every (policy, network, run, benefit,
// cautiousFriends) row to a compact columnar result store and -out writes
// the aggregated result (Welford + quantile-sketch snapshots per policy,
// same shape as an accuserv job result) as JSON.
//
// The query subcommand re-aggregates a result store offline:
//
//	accurun query -store out.acs -policy abm -quantiles 0.5,0.9,0.99 [-where network=0,run=3] [-json]
//
// at O(rows) memory: 16 B per row.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	accu "github.com/accu-sim/accu"
	"github.com/accu-sim/accu/internal/prof"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// writeJournal saves the replayable request journal of a run.
func writeJournal(path string, res *accu.Result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create journal: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if _, err := res.Journal.WriteTo(f); err != nil {
		return fmt.Errorf("write journal: %w", err)
	}
	return nil
}

// traceJSON is the machine-readable attack trace emitted by -json.
type traceJSON struct {
	Preset          string      `json:"preset"`
	Scale           float64     `json:"scale"`
	Nodes           int         `json:"nodes"`
	Edges           int         `json:"edges"`
	Cautious        int         `json:"cautious"`
	Policy          string      `json:"policy"`
	Budget          int         `json:"budget"`
	Benefit         float64     `json:"benefit"`
	Friends         int         `json:"friends"`
	CautiousFriends int         `json:"cautiousFriends"`
	Steps           []accu.Step `json:"steps"`

	// Metrics is the policy/environment metrics snapshot (-metrics).
	Metrics *accu.MetricsSnapshot `json:"metrics,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "accurun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "query" {
		return runQuery(args[1:], out)
	}
	fs := flag.NewFlagSet("accurun", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "slashdot", "dataset preset")
		scale    = fs.Float64("scale", 0.02, "scale factor in (0, 1]")
		policy   = fs.String("policy", "abm", "policy: abm|greedy|maxdegree|pagerank|random")
		k        = fs.Int("k", 50, "friend-request budget")
		wd       = fs.Float64("wd", 0.5, "ABM w_D")
		wi       = fs.Float64("wi", 0.5, "ABM w_I")
		cautious = fs.Int("cautious", 10, "number of cautious users")
		seed     = fs.Uint64("seed", 1, "random seed")
		verbose  = fs.Bool("v", false, "print every request (default: accepted only)")
		asJSON   = fs.Bool("json", false, "emit the full trace as JSON instead of text")
		journal  = fs.String("journal", "", "write the replayable request journal to this file")
		runs     = fs.Int("runs", 1, "repeat the attack over N realizations and print summary stats")
		workers  = fs.Int("workers", 0, "worker pool for -runs > 1 (0 = GOMAXPROCS)")

		checkpoint = fs.String("checkpoint", "", "journal completed cells to this JSONL file (-runs > 1 only)")
		resume     = fs.Bool("resume", false, "resume from an existing -checkpoint journal")
		digest     = fs.Bool("digest", false, "print the canonical SHA-256 record-set digest (-runs > 1 only)")
		store      = fs.String("store", "", "write per-record rows to this columnar result store (-runs > 1 only)")
		outFile    = fs.String("out", "", "write the aggregated result (Welford + sketch snapshots) as JSON to this file (-runs > 1 only)")

		metrics    = fs.Bool("metrics", false, "print policy/environment metrics after the trace")
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
	var reg *accu.Metrics
	if *metrics {
		reg = accu.NewMetrics()
	}

	if *runs < 1 {
		return fmt.Errorf("-runs %d must be >= 1", *runs)
	}
	if *scale == 0 { // a spec reads scale 0 as "default"; the flag already has one
		return fmt.Errorf("-scale 0 not in (0, 1]")
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	spec := serv.Spec{
		Preset:   *preset,
		Scale:    *scale,
		Cautious: cautious,
		Policies: []serv.PolicySpec{{Name: *policy, WD: *wd, WI: *wi}},
		Networks: 1,
		Runs:     *runs,
		K:        *k,
		Seed:     *seed,
		Workers:  *workers,
	}
	protocol, factories, err := spec.Build(reg)
	if err != nil {
		return err
	}
	if *runs > 1 {
		if *asJSON || *journal != "" {
			return fmt.Errorf("-runs > 1 prints summary statistics; -json and -journal apply to single runs only")
		}
		meta := map[string]string{
			"preset":   *preset,
			"scale":    fmt.Sprintf("%g", *scale),
			"policy":   *policy,
			"k":        fmt.Sprintf("%d", *k),
			"cautious": fmt.Sprintf("%d", *cautious),
			"seed":     fmt.Sprintf("%d", *seed),
			"runs":     fmt.Sprintf("%d", *runs),
		}
		return runRepeated(out, protocol, factories[0], *checkpoint, *resume, *digest, *store, *outFile, meta)
	}
	if *checkpoint != "" || *digest || *store != "" || *outFile != "" {
		return fmt.Errorf("-checkpoint, -digest, -store and -out apply to the -runs > 1 Monte-Carlo mode only")
	}
	// The trace is cell (0, 0) of the grid: the engine derives its seeds
	// exactly as for -runs N, and the wrapped setup keeps the network's
	// instance for the header.
	setup := &keptSetup{Builder: protocol.Setup}
	protocol.Setup = setup
	var rec accu.Record
	if err := accu.MonteCarlo(context.Background(), protocol, factories, func(r accu.Record) { rec = r }); err != nil {
		return err
	}
	res := rec.Result
	inst := setup.inst
	p, err := accu.PresetByName(*preset) // for the canonical preset key
	if err != nil {
		return err
	}
	if *journal != "" {
		if err := writeJournal(*journal, res); err != nil {
			return err
		}
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(traceJSON{
			Preset:          p.Key,
			Scale:           *scale,
			Nodes:           inst.N(),
			Edges:           inst.Graph().M(),
			Cautious:        inst.NumCautious(),
			Policy:          rec.Policy,
			Budget:          *k,
			Benefit:         res.Benefit,
			Friends:         res.Friends,
			CautiousFriends: res.CautiousFriends,
			Steps:           res.Steps,
			Metrics:         reg.Snapshot(),
		})
	}

	fmt.Fprintf(out, "network: %s scale %.3f — %d nodes, %d edges, %d cautious\n",
		p.Key, *scale, inst.N(), inst.Graph().M(), inst.NumCautious())
	fmt.Fprintf(out, "policy:  %s, budget %d\n\n", rec.Policy, *k)
	for i, s := range res.Steps {
		if !s.Accepted && !*verbose {
			continue
		}
		kind := "reckless"
		if s.Cautious {
			kind = "CAUTIOUS"
		}
		status := "accepted"
		if !s.Accepted {
			status = "rejected"
		}
		fmt.Fprintf(out, "#%-4d user %-6d %-8s %-8s gain %7.1f  total %8.1f  cautious friends %d\n",
			i+1, s.User, kind, status, s.Gain, s.BenefitAfter, s.CautiousFriendsAfter)
	}
	fmt.Fprintf(out, "\nfinal: benefit %.1f, friends %d (%d cautious), %d requests sent\n",
		res.Benefit, res.Friends, res.CautiousFriends, len(res.Steps))
	if snap := reg.Snapshot(); !snap.Empty() {
		fmt.Fprintf(out, "\n-- metrics --\n%s", snap.Render())
	}
	return nil
}

// keptSetup is a Builder that keeps the last instance it built.
type keptSetup struct {
	accu.Builder
	inst *accu.Instance
}

func (s *keptSetup) Build(g *accu.Graph, seed accu.Seed) (*accu.Instance, error) {
	inst, err := s.Builder.Build(g, seed)
	s.inst = inst
	return inst, err
}

// queryPolicy is one policy's re-aggregated statistics in a query result.
type queryPolicy struct {
	Policy          string               `json:"policy"`
	Count           int64                `json:"count"`
	Benefit         accu.WelfordSnapshot `json:"benefit"`
	CautiousFriends accu.WelfordSnapshot `json:"cautiousFriends"`
	BenefitSketch   accu.SketchSnapshot  `json:"benefitSketch"`
	Quantiles       []queryQuantile      `json:"quantiles"`
}

// queryQuantile is one requested quantile of the benefit distribution.
type queryQuantile struct {
	Q     float64 `json:"q"`
	Value float64 `json:"value"`
}

// queryResult is the JSON payload of the query subcommand.
type queryResult struct {
	Store     string            `json:"store"`
	Meta      map[string]string `json:"meta,omitempty"`
	Truncated bool              `json:"truncated,omitempty"`
	Rows      int64             `json:"rows"`
	Policies  []queryPolicy     `json:"policies"`
}

// runQuery re-aggregates a columnar result store: it streams the rows
// into a Summary, the aggregator behind accurun -out and accuserv
// results, so the statistics do not depend on row order. Memory is
// O(rows): the Summary keeps 16 B per row.
func runQuery(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("accurun query", flag.ContinueOnError)
	var (
		store     = fs.String("store", "", "columnar result store to query (required)")
		policy    = fs.String("policy", "", "restrict to one policy")
		quantiles = fs.String("quantiles", "0.5,0.9,0.99", "comma-separated quantiles in [0, 1]")
		where     = fs.String("where", "", "row filters, comma-separated key=value (keys: network, run)")
		asJSON    = fs.Bool("json", false, "emit the aggregation as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("query: -store is required")
	}
	qs, err := parseQuantiles(*quantiles)
	if err != nil {
		return err
	}
	filter, err := parseWhere(*where)
	if err != nil {
		return err
	}

	sr, err := accu.OpenResultStore(*store)
	if err != nil {
		return err
	}
	summary := accu.NewSummary(nil)
	var rows int64
	err = sr.Scan(func(rec accu.StoreRecord) error {
		if (*policy != "" && rec.Policy != *policy) || !filter.match(rec) {
			return nil
		}
		summary.Collect(accu.Record{Policy: rec.Policy, Network: rec.Network, Run: rec.Run,
			Result: &accu.Result{Benefit: rec.Benefit, CautiousFriends: rec.CautiousFriends}})
		rows++
		return nil
	})
	if err != nil {
		return err
	}
	if sr.Truncated() {
		fmt.Fprintf(os.Stderr, "accurun: warning: %s has a torn trailing block (interrupted writer); results cover the intact prefix\n", *store)
	}
	if *policy != "" && len(summary.Policies()) == 0 {
		return fmt.Errorf("query: no rows for policy %q in %s", *policy, *store)
	}

	res := queryResult{Store: *store, Meta: sr.Meta(), Truncated: sr.Truncated(), Rows: rows}
	for _, p := range summary.Policies() {
		fb, sk := summary.FinalBenefit(p), summary.FinalBenefitSketch(p)
		qp := queryPolicy{
			Policy:          p,
			Count:           fb.Count(),
			Benefit:         fb.Snapshot(),
			CautiousFriends: summary.CautiousFriends(p).Snapshot(),
			BenefitSketch:   sk.Snapshot(),
		}
		for _, q := range qs {
			qp.Quantiles = append(qp.Quantiles, queryQuantile{Q: q, Value: sk.Quantile(q)})
		}
		res.Policies = append(res.Policies, qp)
	}

	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	header := []string{"policy", "count", "benefit"}
	for _, q := range qs {
		header = append(header, fmt.Sprintf("p%g", q*100))
	}
	header = append(header, "cautious")
	var tRows [][]string
	for _, qp := range res.Policies {
		row := []string{
			qp.Policy,
			fmt.Sprintf("%d", qp.Count),
			fmt.Sprintf("%.1f ±%.1f", qp.Benefit.Mean, qp.Benefit.CI95),
		}
		for _, qq := range qp.Quantiles {
			row = append(row, fmt.Sprintf("%.1f", qq.Value))
		}
		row = append(row, fmt.Sprintf("%.1f", qp.CautiousFriends.Mean))
		tRows = append(tRows, row)
	}
	fmt.Fprintf(out, "store: %s (%d rows)\n", *store, rows)
	if len(res.Meta) > 0 {
		keys := make([]string, 0, len(res.Meta))
		for k := range res.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, k+"="+res.Meta[k])
		}
		fmt.Fprintf(out, "meta:  %s\n", strings.Join(parts, " "))
	}
	fmt.Fprint(out, stats.RenderTable(header, tRows))
	return nil
}

// parseQuantiles parses the -quantiles flag into ascending probabilities.
func parseQuantiles(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		q, err := strconv.ParseFloat(part, 64)
		if err != nil || q < 0 || q > 1 {
			return nil, fmt.Errorf("query: invalid quantile %q (want a number in [0, 1])", part)
		}
		out = append(out, q)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("query: -quantiles is empty")
	}
	return out, nil
}

// rowFilter holds the parsed -where clauses: nil fields match any value.
type rowFilter struct {
	network, run *int
}

func (f rowFilter) match(rec accu.StoreRecord) bool {
	if f.network != nil && rec.Network != *f.network {
		return false
	}
	if f.run != nil && rec.Run != *f.run {
		return false
	}
	return true
}

// parseWhere parses "network=0,run=3"-style filters.
func parseWhere(s string) (rowFilter, error) {
	var f rowFilter
	if s == "" {
		return f, nil
	}
	for _, clause := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(clause), "=")
		if !ok {
			return f, fmt.Errorf("query: invalid -where clause %q (want key=value)", clause)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return f, fmt.Errorf("query: invalid -where value %q: %v", val, err)
		}
		switch key {
		case "network":
			f.network = &n
		case "run":
			f.run = &n
		default:
			return f, fmt.Errorf("query: unknown -where key %q (have: network, run)", key)
		}
	}
	return f, nil
}

// runRepeated executes the -runs > 1 mode: one network, many realizations,
// fanned out over the cell-level scheduler, summarized as distribution
// statistics (via accu.Summary: Welford moments plus mergeable quantile
// sketches) rather than a per-request trace. With checkpoint set,
// completed cells journal to that file and a resumed invocation replays
// them into the statistics before computing only what is missing. With
// store set, every record additionally appends one row to a columnar
// result store; with outPath set, the aggregated per-policy result
// (identical in shape to an accuserv job result) is written as JSON.
// protocol and factory come from the flags' serv.Spec.
func runRepeated(out io.Writer, protocol accu.Protocol, factory accu.PolicyFactory, checkpoint string, resume, digest bool, store, outPath string, meta map[string]string) error {
	resolved, clamped := protocol.ResolveWorkers()
	if clamped {
		fmt.Fprintf(os.Stderr, "accurun: -workers %d exceeds the %d-cell run grid; running with %d workers\n",
			protocol.Workers, protocol.Runs, resolved)
	}

	summary := accu.NewSummary(nil)
	var sumFriends int
	var dig *accu.RecordDigest
	if digest || outPath != "" {
		dig = accu.NewRecordDigest()
	}
	var sw *accu.StoreWriter
	if store != "" {
		w, err := accu.CreateResultStore(store, meta)
		if err != nil {
			return err
		}
		sw = w
	}
	var storeErr error
	collect := func(r accu.Record) {
		if dig != nil {
			dig.Collect(r)
		}
		summary.Collect(r)
		sumFriends += r.Result.Friends
		if sw != nil && storeErr == nil {
			storeErr = sw.Append(accu.StoreRecord{
				Policy:          r.Policy,
				Network:         r.Network,
				Run:             r.Run,
				Benefit:         r.Result.Benefit,
				CautiousFriends: r.Result.CautiousFriends,
			})
		}
	}

	start := time.Now()
	err := sim.RunJournaled(context.Background(), protocol, []accu.PolicyFactory{factory}, checkpoint, resume, collect, nil,
		func(format string, args ...any) { fmt.Fprintf(os.Stderr, "accurun: "+format+"\n", args...) })
	if sw != nil {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close result store: %w", cerr)
		}
	}
	if err != nil {
		return err
	}
	if storeErr != nil {
		return fmt.Errorf("append to result store: %w", storeErr)
	}
	fb := summary.FinalBenefit(factory.Name)
	if fb == nil || fb.Count() == 0 {
		return fmt.Errorf("no cells completed")
	}
	n := int(fb.Count())
	wall := time.Since(start)

	sk := summary.FinalBenefitSketch(factory.Name)
	snap := sk.Snapshot()
	fmt.Fprintf(out, "policy:  %s, budget %d, %d realizations, %d workers\n",
		factory.Name, protocol.K, n, resolved)
	fmt.Fprintf(out, "benefit: mean %.1f  std %.1f  min %.1f  max %.1f\n",
		fb.Mean(), fb.Std(), snap.Min, snap.Max)
	fmt.Fprintf(out, "quantiles: p50 %.1f  p90 %.1f  p99 %.1f\n",
		snap.P50, snap.P90, snap.P99)
	fmt.Fprintf(out, "friends: mean %.1f (%.1f cautious)\n",
		float64(sumFriends)/float64(n), summary.CautiousFriends(factory.Name).Mean())
	fmt.Fprintf(out, "timing:  %v wall, %.1f runs/sec\n",
		wall.Round(time.Millisecond), float64(n)/wall.Seconds())
	// The result carries the digest, so the record set is sorted and
	// hashed once for both the digest line and -out.
	var res *serv.Result
	if dig != nil {
		res = serv.BuildResult(dig, summary)
	}
	if digest {
		fmt.Fprintf(out, "digest:  %s\n", res.Digest)
	}
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write -out: %w", err)
		}
	}
	if snap := protocol.Metrics.Snapshot(); !snap.Empty() {
		fmt.Fprintf(out, "\n-- metrics --\n%s", snap.Render())
	}
	return nil
}
