package dist

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Spec describes the grid to distribute (validated by New).
	Spec serv.Spec
	// Dir holds the coordinator's durable state: Dir/cells.jsonl is the
	// cell journal, interchangeable with a local run's checkpoint file.
	Dir string
	// Resume reopens an existing journal instead of requiring a fresh
	// one, exactly like `accurun -resume`.
	Resume bool
	// RangeSize is the number of cells per lease (default 16).
	RangeSize int
	// LeaseTTL bounds how long a lease may go without durable progress
	// before its range is reassigned (default 30s).
	LeaseTTL time.Duration
	// Metrics receives the dist.* instruments (nil disables).
	Metrics *obs.Registry
	// Logf logs coordinator events (nil disables).
	Logf func(format string, args ...any)
}

const (
	defaultRangeSize = 16
	defaultLeaseTTL  = 30 * time.Second
)

// metrics bundles the coordinator's instruments; every field is nil-safe
// because obs instruments no-op on nil receivers.
type metrics struct {
	rangesAssigned   *obs.Counter
	rangesReassigned *obs.Counter
	leasesExpired    *obs.Counter
	cellsAccepted    *obs.Counter
	cellsDuplicate   *obs.Counter
	cellsRejected    *obs.Counter
	uploads          *obs.Counter // cell lines received
	uploadRequests   *obs.Counter
	workersLive      *obs.Gauge
	rangeNS          *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		rangesAssigned:   reg.Counter("dist.ranges_assigned"),
		rangesReassigned: reg.Counter("dist.ranges_reassigned"),
		leasesExpired:    reg.Counter("dist.leases_expired"),
		cellsAccepted:    reg.Counter("dist.cells_accepted"),
		cellsDuplicate:   reg.Counter("dist.cells_duplicate"),
		cellsRejected:    reg.Counter("dist.cells_rejected"),
		uploads:          reg.Counter("dist.uploads"),
		uploadRequests:   reg.Counter("dist.upload_requests"),
		workersLive:      reg.Gauge("dist.workers_live"),
		rangeNS:          reg.Histogram("dist.range_ns"),
	}
}

// cellRange is one contiguous slice of the cell keyspace and its lease
// state. A range with remaining == 0 is finished regardless of who
// uploaded its cells.
type cellRange struct {
	start, end  int
	remaining   int
	leaseID     string
	worker      string
	deadline    time.Time
	leasedAt    time.Time
	assignments int
}

// Coordinator owns one distributed grid run: the durable cell journal,
// the lease table, and the running aggregation (digest + summary).
type Coordinator struct {
	cfg     Config
	total   int
	ttl     time.Duration
	journal *sim.CellJournal
	logf    func(string, ...any)
	met     metrics
	// now is the clock, swappable in tests.
	now func() time.Time

	mu       sync.Mutex
	ranges   []*cellRange
	workers  map[string]time.Time // worker ID -> last contact
	summary  *sim.Summary
	digest   *sim.RecordDigest
	finished bool
	done     chan struct{} // closed once every cell is durable
	failures []string
}

// New opens (or resumes) the journal under cfg.Dir and builds the lease
// table. Already-durable cells are replayed into the aggregation and
// excluded from their ranges' remaining counts, so resuming a killed
// coordinator hands out only the missing work.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("dist: spec: %w", err)
	}
	if cfg.RangeSize <= 0 {
		cfg.RangeSize = defaultRangeSize
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	summary, digest := sim.NewSummary(nil), sim.NewRecordDigest()
	journal, err := sim.ResumeJournal(filepath.Join(cfg.Dir, "cells.jsonl"), cfg.Resume, func(rec sim.Record) {
		summary.Collect(rec)
		digest.Collect(rec)
	}, func(format string, args ...any) { logf("dist: "+format, args...) })
	if err != nil {
		return nil, err
	}
	// Acked cells must survive a coordinator crash: fsync every commit.
	journal.SyncEachCommit()

	c := &Coordinator{
		cfg:     cfg,
		total:   cfg.Spec.Networks * cfg.Spec.Runs,
		ttl:     cfg.LeaseTTL,
		journal: journal,
		logf:    logf,
		met:     newMetrics(cfg.Metrics),
		now:     time.Now,
		workers: make(map[string]time.Time),
		summary: summary,
		digest:  digest,
		done:    make(chan struct{}),
	}
	for start := 0; start < c.total; start += cfg.RangeSize {
		end := start + cfg.RangeSize
		if end > c.total {
			end = c.total
		}
		r := &cellRange{start: start, end: end}
		for i := start; i < end; i++ {
			if !journal.Done(cellOf(i, cfg.Spec.Runs)) {
				r.remaining++
			}
		}
		c.ranges = append(c.ranges, r)
	}
	if journal.Cells() == c.total {
		c.finished = true
		close(c.done)
	}
	return c, nil
}

// Done returns a channel closed once every cell of the grid is durable.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// leased reports whether r is held by a lease whose deadline has not
// passed; an expired lease leaves its range free. Callers hold c.mu.
func (r *cellRange) leased(now time.Time) bool {
	return r.leaseID != "" && !now.After(r.deadline)
}

// updateWorkersLive recomputes the liveness gauge: workers heard from
// within one TTL. Every request and read calls it; callers hold c.mu.
func (c *Coordinator) updateWorkersLive(now time.Time) {
	live := 0
	for _, last := range c.workers {
		if now.Sub(last) <= c.ttl {
			live++
		}
	}
	c.met.workersLive.Set(float64(live))
}

// Lease hands the next available range to worker. done=true means the
// grid is complete; a nil lease with done=false means everything left is
// currently leased out — poll again.
func (c *Coordinator) Lease(worker string) (lease *Lease, done bool) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.updateWorkersLive(now)
	if c.finished {
		return nil, true
	}
	for i, r := range c.ranges {
		if r.remaining == 0 {
			continue
		}
		if r.leased(now) {
			continue
		}
		if r.leaseID != "" {
			c.logf("dist: lease %s on range [%d,%d) expired (worker %s); reassigning",
				r.leaseID, r.start, r.end, r.worker)
			c.met.leasesExpired.Inc()
		}
		r.assignments++
		r.leaseID = fmt.Sprintf("r%d-a%d", i, r.assignments)
		r.worker = worker
		r.deadline = now.Add(c.ttl)
		r.leasedAt = now
		c.met.rangesAssigned.Inc()
		if r.assignments > 1 {
			c.met.rangesReassigned.Inc()
			c.logf("dist: range [%d,%d) reassigned to %s (lease %s, attempt %d)",
				r.start, r.end, worker, r.leaseID, r.assignments)
		}
		return &Lease{
			ID:    r.leaseID,
			Start: r.start,
			End:   r.end,
			TTLMS: c.ttl.Milliseconds(),
		}, false
	}
	return nil, false
}

// Upload commits a batch of cells. Cells are accepted from any
// uploader — current lease holder, expired lease holder, or nobody in
// particular — because the journal dedups by key and the first durable
// commit wins. A line that is not a complete cell of this grid (see
// validLine) is rejected before it reaches the journal, so it can neither
// poison a resume nor the aggregation. The valid lines go to one
// CommitBatch, which skips the cells already done and writes the rest
// with one fsync (the journal runs SyncEachCommit); only then are they
// aggregated and the matching lease's deadline extended, so durable
// progress keeps a slow worker's lease alive; an expired lease stays
// expired. A failed commit accepts none of them.
func (c *Coordinator) Upload(leaseID, worker string, lines []sim.CellLine) (UploadResponse, error) {
	now := c.now()
	runs := c.cfg.Spec.Runs
	var resp UploadResponse

	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	c.updateWorkersLive(now)
	c.met.uploadRequests.Inc()
	c.met.uploads.Add(int64(len(lines)))
	valid := make([]sim.CellLine, 0, len(lines))
	for _, cl := range lines {
		if c.validLine(cl) {
			valid = append(valid, cl)
		}
	}
	resp.Rejected = len(lines) - len(valid)
	c.met.cellsRejected.Add(int64(resp.Rejected))
	fresh, err := c.journal.CommitBatch(valid)
	if err != nil {
		// Not durable: the worker must not treat any cell as committed.
		return resp, fmt.Errorf("dist: commit %d cell(s): %w", len(valid), err)
	}
	resp.Accepted, resp.Duplicate = len(fresh), len(valid)-len(fresh)
	c.met.cellsAccepted.Add(int64(resp.Accepted))
	c.met.cellsDuplicate.Add(int64(resp.Duplicate))
	for _, cl := range fresh {
		for _, rec := range cl.Records {
			c.summary.Collect(rec)
			c.digest.Collect(rec)
		}
		r := c.ranges[c.rangeIndex(indexOf(cl.CellKey, runs))]
		r.remaining--
		if r.remaining == 0 && r.leaseID != "" {
			c.met.rangeNS.Observe(now.Sub(r.leasedAt).Nanoseconds())
			r.leaseID, r.worker = "", ""
		}
	}
	if resp.Duplicate > 0 {
		c.logf("dist: upload from %s (lease %s): %d duplicate cell(s) dropped", worker, leaseID, resp.Duplicate)
	}
	// Durable progress is the heartbeat: extend the matching live lease.
	if resp.Accepted > 0 {
		for _, r := range c.ranges {
			if r.leaseID == leaseID && r.leased(now) {
				r.deadline = now.Add(c.ttl)
				break
			}
		}
	}
	if !c.finished && c.journal.Cells() == c.total {
		c.finished = true
		close(c.done)
		c.logf("dist: grid complete: %d cells, %d records", c.total, c.digest.Count())
	}
	resp.Done = c.finished
	return resp, nil
}

// validLine reports whether cl is a complete cell of this grid: its key
// is in range and it holds exactly one record per roster policy, each
// with a result and the line's own key — what the engine commits for a
// successful cell.
func (c *Coordinator) validLine(cl sim.CellLine) bool {
	spec := c.cfg.Spec
	if cl.Network < 0 || cl.Network >= spec.Networks || cl.Run < 0 || cl.Run >= spec.Runs ||
		len(cl.Records) != len(spec.Policies) {
		return false
	}
	for _, ps := range spec.Policies {
		n := 0
		for _, rec := range cl.Records {
			if rec.Policy == ps.Name {
				n++
			}
		}
		if n != 1 {
			return false
		}
	}
	for _, rec := range cl.Records {
		if rec.Result == nil || rec.Network != cl.Network || rec.Run != cl.Run {
			return false
		}
	}
	return true
}

// rangeIndex locates the range containing cell index ci.
func (c *Coordinator) rangeIndex(ci int) int { return ci / c.cfg.RangeSize }

// Fail releases a lease a worker reports it cannot finish, so the range
// reassigns immediately instead of waiting out the TTL. Only the worker
// holding the lease can release it: lease IDs are predictable, and a
// stale or foreign report must not free a range another worker is on.
func (c *Coordinator) Fail(req FailRequest) {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[req.Worker] = now
	c.updateWorkersLive(now)
	c.failures = append(c.failures, fmt.Sprintf("worker %s lease %s: %s", req.Worker, req.Lease, req.Error))
	for _, r := range c.ranges {
		if r.leaseID == req.Lease && r.worker == req.Worker {
			c.logf("dist: worker %s failed lease %s on range [%d,%d): %s",
				req.Worker, req.Lease, r.start, r.end, req.Error)
			r.leaseID, r.worker = "", ""
			return
		}
	}
}

// Status snapshots coordinator state for polling; expired leases show free.
func (c *Coordinator) Status() Status {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updateWorkersLive(now)
	st := Status{
		Total:     c.total,
		Committed: c.journal.Cells(),
		Records:   c.digest.Count(),
		Done:      c.finished,
	}
	for w := range c.workers {
		st.Workers = append(st.Workers, w)
	}
	sort.Strings(st.Workers)
	for _, r := range c.ranges {
		rs := RangeStatus{Start: r.start, End: r.end, Remaining: r.remaining}
		if r.leased(now) {
			rs.Worker, rs.Lease = r.worker, r.leaseID
		}
		st.Ranges = append(st.Ranges, rs)
	}
	return st
}

// Result assembles the final payload once the grid is complete —
// structurally identical to a job-service Result, with the digest
// bit-identical to a local run of the same spec.
func (c *Coordinator) Result() (*serv.Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.finished {
		return nil, fmt.Errorf("dist: grid incomplete: %d/%d cells", c.journal.Cells(), c.total)
	}
	res := serv.BuildResult(c.digest, c.summary)
	if len(c.failures) > 0 {
		res.Warning = fmt.Sprintf("%d worker failure(s) before completion; last: %s",
			len(c.failures), c.failures[len(c.failures)-1])
	}
	return res, nil
}

// Spec returns the grid description workers build their protocol from.
func (c *Coordinator) Spec() serv.Spec { return c.cfg.Spec }

// Close closes the journal. The coordinator must not serve requests
// after Close.
func (c *Coordinator) Close() error {
	return c.journal.Close()
}
