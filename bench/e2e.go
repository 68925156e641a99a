package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runner drives one invocation's rounds through the built programs.
type runner struct {
	cfg     config
	bin     string // directory holding the programs under test
	dir     string // this invocation's state directory
	grid    spec   // cfg.wl.grid with the seed filled in
	prefill string // entryLocal: the pre-filled journal each round copies
	rounds  int    // directories handed out so far
}

// round is one untraced execution of the workload's grid.
type round struct {
	Cells        int     `json:"cells"` // cells this round made durable
	WindowS      float64 `json:"windowS"`
	SetupS       float64 `json:"setupS"`
	CPUS         float64 `json:"cpuS"` // user+sys over every process under test
	PeakRSSMB    float64 `json:"peakRssMB"`
	DurableBytes int64   `json:"durableBytes"`
	Records      int     `json:"records"`
	Digest       string  `json:"digest"`
	FailedCells  int     `json:"failedCells"`
	Error        string  `json:"error,omitempty"`

	dir     string // the round's state directory, removed once checked
	journal string // the cell journal the round left behind

	// Entry-layer readings, from the programs' own documents.
	servOverheadShare float64 // share of the job window outside execution
	servRetried       int64   // serv.jobs_retried
	distDuplicate     int64   // uploads minus dist.cells_accepted
	distReassigned    int64   // dist.ranges_reassigned
}

// newDir returns a fresh state directory for one round or probe.
func (r *runner) newDir(kind string) (string, error) {
	dir := filepath.Join(r.dir, fmt.Sprintf("%s%d", kind, r.rounds))
	r.rounds++
	return dir, os.MkdirAll(dir, 0o755)
}

// round runs the grid once through the workload's entry point. A failed
// round is returned with Error set; the caller counts its cells failed.
func (r *runner) round(ctx context.Context) *round {
	rd := &round{Cells: r.cfg.wl.newCells()}
	dir, err := r.newDir("round")
	rd.dir = dir
	if err == nil {
		var ps procs
		switch r.cfg.wl.entry {
		case entryServ:
			err = r.servRound(ctx, &ps, dir, rd)
		case entryDist:
			err = r.distRound(ctx, &ps, dir, rd)
		case entryLocal:
			err = r.localRound(ctx, &ps, dir, rd)
		}
		ps.stopAll()
	}
	if err != nil {
		rd.Error = err.Error()
	}
	return rd
}

// addUsage folds the exited programs' CPU time and peak RSS into rd.
func (rd *round) addUsage(ps ...*proc) {
	for _, p := range ps {
		cpu, rss := p.usage()
		rd.CPUS += cpu.Seconds()
		rd.PeakRSSMB = max(rd.PeakRSSMB, rss)
	}
}

// jobDoc is the part of an accuserv job document the benchmark reads.
type jobDoc struct {
	State      string     `json:"state"`
	Error      string     `json:"error"`
	StartedAt  *time.Time `json:"startedAt"`
	FinishedAt *time.Time `json:"finishedAt"`
	Result     *result    `json:"result"`
}

// result is the part of an accuserv/accudist/accurun result it reads.
type result struct {
	Records     int    `json:"records"`
	Digest      string `json:"digest"`
	FailedCells int    `json:"failedCells"`
}

// snapshot is an obs metrics snapshot; only counters are read.
type snapshot struct {
	Counters []struct {
		Name  string `json:"name"`
		Value int64  `json:"value"`
	} `json:"counters"`
}

func (s *snapshot) counter(name string) int64 {
	if s == nil {
		return 0
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

const servJobID = "bench"

// servRound submits the grid as one job to a fresh accuserv that runs one
// job at a time; the job's own engine pool has engineThreads workers.
// Window: job POST until the job document reads done.
func (r *runner) servRound(ctx context.Context, ps *procs, dir string, rd *round) error {
	srv, base, err := r.startServ(ctx, ps, dir, rd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	submit := struct {
		ID   string `json:"id"`
		Spec spec   `json:"spec"`
	}{ID: servJobID, Spec: r.grid}
	if err := postJSON(ctx, base+"/api/v1/jobs", submit, nil, http.StatusCreated); err != nil {
		return err
	}
	var job jobDoc
	err = pollEvery(ctx, 10*time.Millisecond, func() (bool, error) {
		if code, err := getJSON(ctx, base+"/api/v1/jobs/"+servJobID, &job); err != nil || code != http.StatusOK {
			return false, fmt.Errorf("get job: status %d: %v", code, err)
		}
		switch job.State {
		case "done":
			return true, nil
		case "failed", "cancelled":
			return false, fmt.Errorf("job %s: %s", job.State, job.Error)
		}
		return false, nil
	})
	window := time.Since(t0)
	if err != nil {
		return err
	}
	rd.WindowS = window.Seconds()
	if job.Result == nil || job.StartedAt == nil || job.FinishedAt == nil {
		return fmt.Errorf("done job document lacks result or timestamps")
	}
	rd.Records, rd.Digest, rd.FailedCells = job.Result.Records, job.Result.Digest, job.Result.FailedCells
	rd.servOverheadShare = 1 - job.FinishedAt.Sub(*job.StartedAt).Seconds()/window.Seconds()
	var snap snapshot
	if _, err := getJSON(ctx, base+"/metrics", &snap); err != nil {
		return fmt.Errorf("get metrics: %w", err)
	}
	rd.servRetried = snap.counter("serv.jobs_retried")
	if err := stop(ctx, srv); err != nil {
		return err
	}
	rd.addUsage(srv)
	data := filepath.Join(dir, "data")
	rd.journal = filepath.Join(data, "checkpoints", servJobID+".jsonl")
	rd.DurableBytes, err = dirBytes(data)
	return err
}

// startServ starts accuserv on a fresh data directory and records its
// set-up time (exec until the first healthy /healthz) in rd.
func (r *runner) startServ(ctx context.Context, ps *procs, dir string, rd *round) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	srv, err := ps.start("accuserv", filepath.Join(r.bin, "accuserv"), nil,
		"-addr", addr, "-data", filepath.Join(dir, "data"), "-workers", "1")
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	ready, err := waitHealthy(ctx, srv, base)
	if err != nil {
		return nil, "", err
	}
	rd.SetupS = ready.Sub(srv.start).Seconds()
	return srv, base, nil
}

// stop sends SIGTERM and requires a clean exit.
func stop(ctx context.Context, p *proc) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	return p.wait(ctx)
}

// distLinger is how long the coordinator keeps serving the done signal;
// it must exceed distPoll so both workers see it and exit cleanly.
const (
	distLinger = "300ms"
	distPoll   = "20ms"
)

// distRound runs a loopback coordinator and engineThreads worker
// processes, each with a one-thread engine. Window: worker launch until
// the first 200 from /api/v1/dist/result, polled every 20 ms.
func (r *runner) distRound(ctx context.Context, ps *procs, dir string, rd *round) error {
	coord, base, err := r.startCoordinator(ctx, ps, dir, rd)
	if err != nil {
		return err
	}
	t0 := time.Now()
	workers := []*proc{coord}
	for i := 0; i < engineThreads; i++ {
		w, err := ps.start(fmt.Sprintf("worker %d", i), filepath.Join(r.bin, "accudist"), nil,
			"-worker", "-join", base, "-id", fmt.Sprintf("w%d", i), "-poll", distPoll)
		if err != nil {
			return err
		}
		workers = append(workers, w)
	}
	var res result
	err = pollEvery(ctx, 20*time.Millisecond, func() (bool, error) {
		code, err := getJSON(ctx, base+"/api/v1/dist/result", &res)
		if err != nil {
			return false, fmt.Errorf("get result: %w", err)
		}
		return code == http.StatusOK, nil
	})
	if err != nil {
		return err
	}
	rd.WindowS = time.Since(t0).Seconds()
	for _, p := range workers {
		if err := p.wait(ctx); err != nil {
			return err
		}
	}
	rd.addUsage(workers...)
	rd.Records, rd.Digest, rd.FailedCells = res.Records, res.Digest, res.FailedCells

	outPath := filepath.Join(dir, "out.json")
	var out struct {
		Result  result    `json:"result"`
		Metrics *snapshot `json:"metrics"`
	}
	if err := readJSON(outPath, &out); err != nil {
		return err
	}
	if out.Result != res {
		return fmt.Errorf("coordinator -out result %+v differs from /result %+v", out.Result, res)
	}
	rd.distDuplicate = out.Metrics.counter("dist.uploads") - out.Metrics.counter("dist.cells_accepted")
	rd.distReassigned = out.Metrics.counter("dist.ranges_reassigned")
	data := filepath.Join(dir, "data")
	rd.journal = filepath.Join(data, "cells.jsonl")
	state, err := dirBytes(data)
	if err != nil {
		return err
	}
	outBytes, err := fileBytes(outPath)
	rd.DurableBytes = state + outBytes
	return err
}

// startCoordinator writes the grid spec and starts an accudist
// coordinator on it, recording its set-up time in rd.
func (r *runner) startCoordinator(ctx context.Context, ps *procs, dir string, rd *round) (*proc, string, error) {
	specPath := filepath.Join(dir, "spec.json")
	data, err := json.Marshal(r.grid)
	if err != nil {
		return nil, "", err
	}
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return nil, "", err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	coord, err := ps.start("coordinator", filepath.Join(r.bin, "accudist"), nil,
		"-coordinator", "-addr", addr, "-spec", specPath, "-dir", filepath.Join(dir, "data"),
		"-out", filepath.Join(dir, "out.json"), "-linger", distLinger)
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	ready, err := waitHealthy(ctx, coord, base)
	if err != nil {
		return nil, "", err
	}
	rd.SetupS = ready.Sub(coord.start).Seconds()
	return coord, base, nil
}

// localArgs are the accurun flags that describe the grid.
func (r *runner) localArgs(runs int) []string {
	g := r.grid
	return []string{
		"-preset", g.Preset, "-scale", strconv.FormatFloat(g.Scale, 'g', -1, 64),
		"-policy", g.Policies[0].Name, "-k", strconv.Itoa(g.K),
		"-seed", strconv.FormatUint(g.Seed, 10), "-workers", strconv.Itoa(g.Workers),
		"-runs", strconv.Itoa(runs),
	}
}

// fillPrefill journals the first wl.prefill runs with a plain accurun;
// every round resumes from a copy of that journal.
func (r *runner) fillPrefill(ctx context.Context) error {
	r.prefill = filepath.Join(r.dir, "prefill.jsonl")
	var ps procs
	defer ps.stopAll()
	p, err := ps.start("accurun (prefill)", filepath.Join(r.bin, "accurun"), nil,
		append(r.localArgs(r.cfg.wl.prefill), "-checkpoint", r.prefill)...)
	if err != nil {
		return err
	}
	return p.wait(ctx)
}

// resumeMarker starts the stderr line accurun prints once it has loaded
// its checkpoint; set-up ends there.
const resumeMarker = "accurun: resuming "

// localRun is one accurun resuming a copy of the pre-filled journal.
type localRun struct {
	acc                   *proc
	watch                 *lineWatch
	journal, store, out   string
	prefilledJournalBytes int64
}

// startLocal copies the pre-filled journal into dir and starts accurun
// resuming it, with a result store and its -out result.
func (r *runner) startLocal(ps *procs, dir string) (*localRun, error) {
	lr := &localRun{
		watch:   newLineWatch(resumeMarker),
		journal: filepath.Join(dir, "cells.jsonl"),
		store:   filepath.Join(dir, "out.acs"),
		out:     filepath.Join(dir, "out.json"),
	}
	if err := copyFile(r.prefill, lr.journal); err != nil {
		return nil, err
	}
	n, err := fileBytes(lr.journal)
	if err != nil {
		return nil, err
	}
	lr.prefilledJournalBytes = n
	lr.acc, err = ps.start("accurun", filepath.Join(r.bin, "accurun"), lr.watch,
		append(r.localArgs(r.grid.Runs), "-checkpoint", lr.journal, "-resume",
			"-store", lr.store, "-out", lr.out, "-digest")...)
	return lr, err
}

// localRound resumes a copy of the pre-filled journal with accurun.
// Window: exec until exit.
func (r *runner) localRound(ctx context.Context, ps *procs, dir string, rd *round) error {
	lr, err := r.startLocal(ps, dir)
	if err != nil {
		return err
	}
	rd.journal = lr.journal
	acc := lr.acc
	if err := acc.wait(ctx); err != nil {
		return err
	}
	rd.WindowS = acc.end.Sub(acc.start).Seconds()
	seen := lr.watch.seen()
	if seen.IsZero() {
		return fmt.Errorf("accurun never printed %q", resumeMarker)
	}
	rd.SetupS = seen.Sub(acc.start).Seconds()
	rd.addUsage(acc)

	var res result
	if err := readJSON(lr.out, &res); err != nil {
		return err
	}
	rd.Records, rd.Digest, rd.FailedCells = res.Records, res.Digest, res.FailedCells
	if printed := digestLine(acc.output.String()); printed != res.Digest {
		return fmt.Errorf("accurun printed digest %q but wrote %q to -out", printed, res.Digest)
	}
	var total int64
	for _, p := range []string{lr.journal, lr.store, lr.out} {
		n, err := fileBytes(p)
		if err != nil {
			return err
		}
		total += n
	}
	rd.DurableBytes = total - lr.prefilledJournalBytes
	return nil
}

// digestLine extracts the digest from accurun's "digest:  <hex>" line.
func digestLine(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "digest:"); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

func readJSON(path string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// probeSetup starts the workload's entry point once more on fresh state
// and kills it once it is ready (healthy, or done loading its journal),
// returning its set-up time. Extra samples steady the set-up median. The
// probe kills rather than signals: accudist answers /healthz before it
// installs its SIGTERM handler.
func (r *runner) probeSetup(ctx context.Context) (float64, error) {
	dir, err := r.newDir("probe")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	var ps procs
	defer ps.stopAll()
	var rd round
	switch r.cfg.wl.entry {
	case entryServ:
		_, _, err = r.startServ(ctx, &ps, dir, &rd)
	case entryDist:
		_, _, err = r.startCoordinator(ctx, &ps, dir, &rd)
	case entryLocal:
		var lr *localRun
		if lr, err = r.startLocal(&ps, dir); err != nil {
			return 0, err
		}
		select {
		case <-lr.watch.seenCh:
			rd.SetupS = lr.watch.seen().Sub(lr.acc.start).Seconds()
		case <-lr.acc.exited:
			err = fmt.Errorf("accurun exited before printing %q: %v\n%s", resumeMarker, lr.acc.err, tail(lr.acc.output.String()))
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	return rd.SetupS, err
}
