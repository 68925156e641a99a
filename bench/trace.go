package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"strconv"
	"time"

	accu "github.com/accu-sim/accu"
)

// tracePass is the result of one traced, single-goroutine replica of a
// round. Every call into a layer is timed from here, so the end-to-end
// metrics (from untraced rounds) never include the timer cost.
type tracePass struct {
	t       *tracer
	wall    time.Duration
	digest  string // of the records the replica computed (and replayed)
	records int
	// others are digests the same records produced elsewhere, by source:
	// the coordinator the bench uploaded to, and the journal re-read by
	// the recovery probe. Each must equal digest.
	others map[string]string
	// load and replay time opening the pass's journal with resume and
	// feeding its records back through summary and digest: inside the
	// pass for entryLocal, in a recovery probe after it otherwise.
	load, replay time.Duration
}

// collector mirrors what every entry point does with a finished record:
// fold it into the record digest and the summary.
type collector struct {
	t       *tracer
	summary *accu.Summary
	digest  *accu.RecordDigest
	records int
}

func newCollector(t *tracer) *collector {
	return &collector{t: t, summary: accu.NewSummary(nil), digest: accu.NewRecordDigest()}
}

func (c *collector) collect(rec accu.Record) {
	t0 := time.Now()
	c.digest.Collect(rec)
	c.t.digest.add(c.t.since(t0))
	t0 = time.Now()
	c.summary.Collect(rec)
	c.t.summary.add(c.t.since(t0))
	c.records++
}

// sum finishes the digest.
func (c *collector) sum() string {
	t0 := time.Now()
	s := c.digest.Sum()
	c.t.digestSum.add(c.t.since(t0))
	return s
}

// traced runs the workload's grid once in-process, the way its entry
// point does, timing every layer call.
func (r *runner) traced(ctx context.Context) (*tracePass, error) {
	dir, err := r.newDir("trace")
	if err != nil {
		return nil, err
	}
	t := newTracer()
	rep, err := newReplica(r.grid, t)
	if err != nil {
		return nil, err
	}
	p := &tracePass{t: t, others: make(map[string]string)}
	journal := filepath.Join(dir, "cells.jsonl")
	switch r.cfg.wl.entry {
	case entryServ:
		err = r.traceServ(rep, journal, p)
	case entryDist:
		journal = filepath.Join(dir, "data", "cells.jsonl")
		err = r.traceDist(ctx, rep, dir, p)
	case entryLocal:
		err = r.traceLocal(rep, dir, journal, p)
	}
	if err != nil {
		return nil, err
	}
	if r.cfg.wl.entry != entryLocal {
		if err := p.recoveryProbe(journal); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// commitCell commits one cell to a local journal, as accuserv's job
// executor and accurun do.
func commitCell(t *tracer, j *accu.CellJournal, i, run int, recs []accu.Record) error {
	t0 := time.Now()
	err := j.Commit(accu.CellKey{Network: i, Run: run}, recs)
	d := t.since(t0)
	t.commit.add(d)
	t.durable = append(t.durable, d)
	return err
}

// closeJournal closes (and so fsyncs) a journal as part of the commit
// stage.
func closeJournal(t *tracer, j *accu.CellJournal) error {
	t0 := time.Now()
	err := j.Close()
	t.commit.add(t.since(t0))
	return err
}

// traceServ replicates accuserv's job executor: every cell collected,
// then committed to a journal that syncs only on close.
func (r *runner) traceServ(rep *replica, journal string, p *tracePass) error {
	t := p.t
	col := newCollector(t)
	start := time.Now()
	j, err := accu.OpenCellJournal(journal, false)
	if err != nil {
		return err
	}
	for c := 0; c < r.grid.cells() && err == nil; c++ {
		i, run := c/r.grid.Runs, c%r.grid.Runs
		var recs []accu.Record
		if recs, err = rep.cell(i, run); err != nil {
			break
		}
		for _, rec := range recs {
			col.collect(rec)
		}
		err = commitCell(t, j, i, run, recs)
	}
	if err := errors.Join(err, closeJournal(t, j)); err != nil {
		return err
	}
	p.digest, p.records = col.sum(), col.records
	p.wall = time.Since(start)
	size, err := fileBytes(journal)
	t.durableBytes = size
	return err
}

// traceLocal replicates `accurun -resume -store`: load and replay the
// pre-filled journal into digest, summary and result store, then compute,
// collect, store and commit the missing cells.
func (r *runner) traceLocal(rep *replica, dir, journal string, p *tracePass) error {
	t := p.t
	if err := copyFile(r.prefill, journal); err != nil {
		return err
	}
	prefilled, err := fileBytes(journal)
	if err != nil {
		return err
	}
	col := newCollector(t)
	start := time.Now()
	t0 := time.Now()
	j, err := accu.OpenCellJournal(journal, true)
	if err != nil {
		return err
	}
	var replayed []accu.Record
	j.Replay(func(rec accu.Record) { replayed = append(replayed, rec) })
	t.load.add(t.since(t0))

	t0 = time.Now()
	sw, err := accu.CreateResultStore(filepath.Join(dir, "out.acs"), map[string]string{"seed": strconv.FormatUint(r.grid.Seed, 10)})
	t.store.add(t.since(t0))
	if err != nil {
		return errors.Join(err, j.Close())
	}
	var storeErr error
	collect := func(rec accu.Record) {
		col.collect(rec)
		t0 := time.Now()
		if err := sw.Append(accu.StoreRecord{Policy: rec.Policy, Network: rec.Network, Run: rec.Run,
			Benefit: rec.Result.Benefit, CautiousFriends: rec.Result.CautiousFriends}); err != nil && storeErr == nil {
			storeErr = err
		}
		t.store.add(t.since(t0))
	}
	before := t.summary.total + t.digest.total + t.store.total
	for _, rec := range replayed {
		collect(rec)
	}
	t.replay.add(t.summary.total + t.digest.total + t.store.total - before)

	fresh := 0
	for c := 0; c < r.grid.cells() && err == nil; c++ {
		i, run := c/r.grid.Runs, c%r.grid.Runs
		if j.Done(accu.CellKey{Network: i, Run: run}) {
			continue
		}
		var recs []accu.Record
		if recs, err = rep.cell(i, run); err != nil {
			break
		}
		for _, rec := range recs {
			collect(rec)
		}
		err = commitCell(t, j, i, run, recs)
		fresh++
	}
	if cerr := closeJournal(t, j); err == nil {
		err = cerr
	}
	t0 = time.Now()
	if cerr := sw.Close(); err == nil {
		err = cerr
	}
	t.store.add(t.since(t0))
	if err == nil {
		err = storeErr
	}
	if err != nil {
		return err
	}
	p.digest, p.records = col.sum(), col.records
	p.wall = time.Since(start)
	p.load, p.replay = t.load.total, t.replay.total
	size, err := fileBytes(journal)
	t.durableBytes = size - prefilled
	if fresh != r.cfg.wl.newCells() {
		return fmt.Errorf("resumed journal left %d cells to compute, want %d", fresh, r.cfg.wl.newCells())
	}
	return err
}

// cellLine is the journal and upload line of one cell (sim.CellLine).
type cellLine struct {
	Network int           `json:"network"`
	Run     int           `json:"run"`
	Records []accu.Record `json:"records"`
}

// traceDist makes the bench the lone worker of a real coordinator: lease
// a range, compute its cells in-process and upload each one, waiting for
// the durable ack, as accudist workers do.
func (r *runner) traceDist(ctx context.Context, rep *replica, dir string, p *tracePass) error {
	t := p.t
	var ps procs
	defer ps.stopAll()
	coord, base, err := r.startCoordinator(ctx, &ps, dir, &round{})
	if err != nil {
		return err
	}
	col := newCollector(t)
	start := time.Now()
	const worker = "bench"
	for {
		var lr struct {
			Done  bool `json:"done"`
			Lease *struct {
				ID    string `json:"id"`
				Start int    `json:"start"`
				End   int    `json:"end"`
			} `json:"lease"`
		}
		t0 := time.Now()
		err := postJSON(ctx, base+"/api/v1/dist/lease", map[string]string{"worker": worker}, &lr, http.StatusOK)
		t.lease.add(t.since(t0))
		if err != nil {
			return err
		}
		if lr.Done {
			break
		}
		if lr.Lease == nil {
			return fmt.Errorf("coordinator withheld a lease from its only worker")
		}
		q := url.Values{"lease": {lr.Lease.ID}, "worker": {worker}}.Encode()
		for c := lr.Lease.Start; c < lr.Lease.End; c++ {
			i, run := c/r.grid.Runs, c%r.grid.Runs
			recs, err := rep.cell(i, run)
			if err != nil {
				return err
			}
			for _, rec := range recs {
				col.collect(rec)
			}
			if err := upload(ctx, t, base+"/api/v1/dist/cells?"+q, cellLine{Network: i, Run: run, Records: recs}); err != nil {
				return err
			}
		}
	}
	var res result
	t0 := time.Now()
	code, err := getJSON(ctx, base+"/api/v1/dist/result", &res)
	t.result.add(t.since(t0))
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("get result: status %d: %v", code, err)
	}
	p.digest, p.records = col.sum(), col.records
	p.wall = time.Since(start)
	p.others["coordinator"] = res.Digest
	return coord.wait(ctx)
}

// upload sends one cell line and requires the coordinator to accept it.
func upload(ctx context.Context, t *tracer, target string, line cellLine) error {
	t0 := time.Now()
	body, err := json.Marshal(line)
	if err != nil {
		return err
	}
	body = append(body, '\n')
	var ur struct {
		Accepted int `json:"accepted"`
	}
	err = post(ctx, target, "application/jsonl", body, &ur, http.StatusOK)
	d := t.since(t0)
	t.upload.add(d)
	t.durable = append(t.durable, d)
	t.durableBytes += int64(len(body))
	if err == nil && ur.Accepted != 1 {
		err = fmt.Errorf("coordinator accepted %d of 1 uploaded cell (%d,%d)", ur.Accepted, line.Network, line.Run)
	}
	return err
}

// recoveryProbe times what a restart pays for the journal the pass left:
// open it with resume (parse every line) and replay its records through a
// fresh digest and summary. The replayed digest must match the pass's.
func (p *tracePass) recoveryProbe(journal string) error {
	t0 := time.Now()
	j, err := accu.OpenCellJournal(journal, true)
	if err != nil {
		return err
	}
	var recs []accu.Record
	j.Replay(func(rec accu.Record) { recs = append(recs, rec) })
	p.load = time.Since(t0)
	t0 = time.Now()
	summary, digest := accu.NewSummary(nil), accu.NewRecordDigest()
	for _, rec := range recs {
		digest.Collect(rec)
		summary.Collect(rec)
	}
	p.replay = time.Since(t0)
	p.others["journal replay"] = digest.Sum()
	return j.Close()
}
