package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/rng"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/sim/fault"
	"github.com/accu-sim/accu/internal/vfs"
)

// testSpec is a small grid: 2 networks × 3 runs = 6 cells, two policies.
func testSpec() serv.Spec {
	cautious := 5
	return serv.Spec{
		Preset:   "slashdot",
		Scale:    0.02,
		Cautious: &cautious,
		Policies: []serv.PolicySpec{{Name: "random"}, {Name: "greedy"}},
		Networks: 2,
		Runs:     3,
		K:        8,
		Seed:     7,
		Workers:  1,
	}
}

// localReference runs the spec's grid locally, uninterrupted, and
// returns the canonical digest, record count and summary — the contract
// every distributed execution must reproduce bit for bit.
func localReference(t *testing.T, spec serv.Spec) (string, int, *sim.Summary) {
	t.Helper()
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	dig := sim.NewRecordDigest()
	sum := sim.NewSummary(nil)
	records := 0
	if err := sim.Run(context.Background(), protocol, factories, func(rec sim.Record) {
		dig.Collect(rec)
		sum.Collect(rec)
		records++
	}); err != nil {
		t.Fatal(err)
	}
	return dig.Sum(), records, sum
}

// newTestCoordinator builds a coordinator over t.TempDir with a short
// lease TTL and its HTTP server.
func newTestCoordinator(t *testing.T, spec serv.Spec, rangeSize int, ttl time.Duration, reg *obs.Registry) (*Coordinator, *httptest.Server) {
	t.Helper()
	coord, err := New(Config{
		Spec:      spec,
		Dir:       t.TempDir(),
		RangeSize: rangeSize,
		LeaseTTL:  ttl,
		Metrics:   reg,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStrictServer(t, coord.Handler())
	t.Cleanup(func() {
		srv.Close()
		coord.Close()
	})
	return coord, srv
}

// newStrictServer starts h on an httptest listener whose error log fails
// the test on net/http's "superfluous response.WriteHeader" complaint, so
// every HTTP test also checks that each handler path commits its
// response header once. The caller closes the server.
func newStrictServer(t *testing.T, h http.Handler) *httptest.Server {
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ErrorLog = log.New(failOnSuperfluous{t}, "", 0)
	srv.Start()
	return srv
}

// failOnSuperfluous is an http.Server error log that fails t on a
// superfluous WriteHeader and passes every other line to t.Log.
type failOnSuperfluous struct{ t *testing.T }

func (w failOnSuperfluous) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("superfluous response.WriteHeader")) {
		w.t.Errorf("http server: %s", p)
	} else {
		w.t.Logf("http server: %s", p)
	}
	return len(p), nil
}

func counterValue(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// TestDistributedDigestMatchesLocal is the package's core contract: a
// grid executed by two workers over HTTP aggregates to the same record
// digest as one uninterrupted local run.
func TestDistributedDigestMatchesLocal(t *testing.T) {
	spec := testSpec()
	wantDigest, wantRecords, wantSummary := localReference(t, spec)

	reg := obs.New()
	coord, srv := newTestCoordinator(t, spec, 2, 30*time.Second, reg)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &Worker{
				Coordinator:  srv.URL,
				ID:           []string{"wa", "wb"}[i],
				PollInterval: 10 * time.Millisecond,
				Logf:         t.Logf,
			}
			errs[i] = w.Run(ctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	select {
	case <-coord.Done():
	default:
		t.Fatal("workers returned but grid not done")
	}
	res, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest {
		t.Errorf("distributed digest %s, want %s", res.Digest, wantDigest)
	}
	if res.Records != wantRecords {
		t.Errorf("distributed records %d, want %d", res.Records, wantRecords)
	}
	if got := counterValue(reg, "dist.cells_accepted"); got != int64(spec.Networks*spec.Runs) {
		t.Errorf("cells_accepted = %d, want %d", got, spec.Networks*spec.Runs)
	}
	// Both policy aggregates must be populated with one observation per
	// (network, run, policy) record.
	if len(res.Policies) != len(spec.Policies) {
		t.Fatalf("policies = %d, want %d", len(res.Policies), len(spec.Policies))
	}
	for _, pr := range res.Policies {
		if pr.FinalBenefit.Count != int64(spec.Networks*spec.Runs) {
			t.Errorf("%s: final count %d", pr.Policy, pr.FinalBenefit.Count)
		}
		// The quantile sketches must be BYTE-identical to the local
		// uninterrupted run — the reproducibility contract the sketch's
		// canonical coarsening provides and the dist e2e script checks.
		want, err := json.Marshal(wantSummary.FinalBenefitSketch(pr.Policy).Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(pr.FinalBenefitSketch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: distributed final-benefit sketch diverged from local:\n got %s\nwant %s", pr.Policy, got, want)
		}
	}
	// The status endpoint agrees.
	st := coord.Status()
	if !st.Done || st.Committed != spec.Networks*spec.Runs {
		t.Errorf("status = %+v", st)
	}
}

// TestAbandonedLeaseReassigned pins straggler recovery: a worker that
// leases a range and dies silently must lose it after the TTL, and the
// range must reassign to the next worker.
func TestAbandonedLeaseReassigned(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	coord, srv := newTestCoordinator(t, spec, 3, 80*time.Millisecond, reg)

	// The doomed worker takes a lease and vanishes without uploading.
	lease, done := coord.Lease("doomed")
	if done || lease == nil {
		t.Fatalf("lease = %v, done = %v", lease, done)
	}

	// A live worker drains the whole grid; it must eventually receive the
	// abandoned range once the lease expires.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{Coordinator: srv.URL, ID: "live", PollInterval: 20 * time.Millisecond, Logf: t.Logf}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("grid not done after live worker drained it")
	}
	if got := counterValue(reg, "dist.ranges_reassigned"); got < 1 {
		t.Errorf("ranges_reassigned = %d, want >= 1", got)
	}
	if got := counterValue(reg, "dist.leases_expired"); got < 1 {
		t.Errorf("leases_expired = %d, want >= 1", got)
	}
}

// TestDuplicateCommitRace pins exactly-once aggregation when two workers
// upload the same cells concurrently (the lease-expiry race: a straggler
// finishes just as its reassigned replacement does). Runs under -race in
// CI; the assertions are scheduling-independent: however the two uploads
// interleave, each cell aggregates exactly once and the loser is counted
// as a duplicate.
func TestDuplicateCommitRace(t *testing.T) {
	spec := testSpec()
	wantDigest, wantRecords, _ := localReference(t, spec)
	reg := obs.New()
	_, srv := newTestCoordinator(t, spec, spec.Networks*spec.Runs, time.Minute, reg)

	// Compute every cell's records once, locally, to use as both upload
	// payloads.
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	byCell := make(map[sim.CellKey][]sim.Record)
	if err := sim.Run(context.Background(), protocol, factories, func(rec sim.Record) {
		key := sim.CellKey{Network: rec.Network, Run: rec.Run}
		byCell[key] = append(byCell[key], rec)
	}); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for key, recs := range byCell {
		if err := enc.Encode(sim.CellLine{CellKey: key, Records: recs}); err != nil {
			t.Fatal(err)
		}
	}

	upload := func(worker string) (UploadResponse, error) {
		resp, err := http.Post(srv.URL+"/api/v1/dist/cells?lease=r0-a1&worker="+worker,
			"application/jsonl", bytes.NewReader(body.Bytes()))
		if err != nil {
			return UploadResponse{}, err
		}
		defer resp.Body.Close()
		var ur UploadResponse
		if err := json.NewDecoder(resp.Body).Decode(&ur); err != nil {
			return UploadResponse{}, err
		}
		return ur, nil
	}

	var wg sync.WaitGroup
	results := make([]UploadResponse, 2)
	uploadErrs := make([]error, 2)
	for i, worker := range []string{"racer_a", "racer_b"} {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			results[i], uploadErrs[i] = upload(worker)
		}(i, worker)
	}
	wg.Wait()
	for i, err := range uploadErrs {
		if err != nil {
			t.Fatalf("upload %d: %v", i, err)
		}
	}

	cells := spec.Networks * spec.Runs
	gotAccepted := results[0].Accepted + results[1].Accepted
	gotDuplicate := results[0].Duplicate + results[1].Duplicate
	if gotAccepted != cells {
		t.Errorf("accepted %d cells across both uploads, want exactly %d", gotAccepted, cells)
	}
	if gotDuplicate != cells {
		t.Errorf("duplicate %d cells across both uploads, want %d", gotDuplicate, cells)
	}
	if got := counterValue(reg, "dist.cells_duplicate"); got != int64(cells) {
		t.Errorf("dist.cells_duplicate = %d, want %d", got, cells)
	}

	// Exactly-once aggregation: the result matches the local reference
	// even though every cell was uploaded twice.
	var res serv.Result
	hres, err := http.Get(srv.URL + "/api/v1/dist/result")
	if err != nil {
		t.Fatal(err)
	}
	defer hres.Body.Close()
	if err := json.NewDecoder(hres.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest {
		t.Errorf("digest %s, want %s", res.Digest, wantDigest)
	}
	if res.Records != wantRecords {
		t.Errorf("records %d, want %d (exactly-once violated)", res.Records, wantRecords)
	}
}

// TestChaosStallDigestStable runs a worker whose generator randomly
// stalls (Stall-only chaos: an injected failure would abort the worker's
// grid) and checks the digest still matches the local reference.
func TestChaosStallDigestStable(t *testing.T) {
	spec := testSpec()
	wantDigest, _, _ := localReference(t, spec)
	coord, srv := newTestCoordinator(t, spec, 2, 30*time.Second, obs.New())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{
		Coordinator:  srv.URL,
		ID:           "chaotic",
		PollInterval: 10 * time.Millisecond,
		Logf:         t.Logf,
		Mutate: func(p *sim.Protocol) {
			p.Gen = fault.Generator{Inner: p.Gen, Rates: fault.Rates{Stall: 0.5, StallFor: 5 * time.Millisecond}}
		},
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest {
		t.Errorf("chaos digest %s, want %s", res.Digest, wantDigest)
	}
}

// TestWorkerStopsAtFailedCell: a failed cell is deterministic, so a
// worker that hits one releases its lease and stops with the cell's
// error instead of leasing the same range forever.
func TestWorkerStopsAtFailedCell(t *testing.T) {
	spec := testSpec()
	_, srv := newTestCoordinator(t, spec, 2, 30*time.Second, obs.New())

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w := &Worker{
		Coordinator:  srv.URL,
		ID:           "doomed",
		PollInterval: 10 * time.Millisecond,
		Logf:         t.Logf,
		Mutate: func(p *sim.Protocol) {
			p.Gen = fault.Generator{Inner: p.Gen, Rates: fault.Rates{Fail: 1}}
		},
	}
	err := w.Run(ctx)
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Run = %v, want an error wrapping fault.ErrInjected", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("Run returned only after the deadline: %v", err)
	}
	var cellErr *sim.CellError
	if !errors.As(err, &cellErr) {
		t.Errorf("Run = %v, want a *sim.CellError", err)
	}
}

// TestCoordinatorResume kills a coordinator after a partial upload and
// resumes from its journal: only the missing cells are handed out, and
// the final digest matches the local reference.
func TestCoordinatorResume(t *testing.T) {
	spec := testSpec()
	wantDigest, wantRecords, _ := localReference(t, spec)
	dir := t.TempDir()

	coord, err := New(Config{Spec: spec, Dir: dir, RangeSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	// Upload the first three cells directly, then "crash".
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	byCell := make(map[sim.CellKey][]sim.Record)
	if err := sim.Run(context.Background(), protocol, factories, func(rec sim.Record) {
		key := sim.CellKey{Network: rec.Network, Run: rec.Run}
		byCell[key] = append(byCell[key], rec)
	}); err != nil {
		t.Fatal(err)
	}
	var partial []sim.CellLine
	for _, key := range []sim.CellKey{{Network: 0, Run: 0}, {Network: 0, Run: 2}, {Network: 1, Run: 1}} {
		partial = append(partial, sim.CellLine{CellKey: key, Records: byCell[key]})
	}
	if _, err := coord.Upload("r0-a1", "w1", partial); err != nil {
		t.Fatal(err)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume: three cells are already durable, three remain.
	coord2, err := New(Config{Spec: spec, Dir: dir, Resume: true, RangeSize: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStrictServer(t, coord2.Handler())
	defer srv.Close()
	defer coord2.Close()
	if st := coord2.Status(); st.Committed != 3 {
		t.Fatalf("resumed with %d committed cells, want 3", st.Committed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	w := &Worker{Coordinator: srv.URL, ID: "finisher", PollInterval: 10 * time.Millisecond, Logf: t.Logf}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := coord2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != wantDigest {
		t.Errorf("resumed digest %s, want %s", res.Digest, wantDigest)
	}
	if res.Records != wantRecords {
		t.Errorf("resumed records %d, want %d", res.Records, wantRecords)
	}
}

// TestWorkerFailReleasesLease pins the fast path around the TTL: a
// worker that reports a range failure releases the lease immediately so
// another worker picks it up without waiting for expiry.
func TestWorkerFailReleasesLease(t *testing.T) {
	spec := testSpec()
	coord, _ := newTestCoordinator(t, spec, 3, time.Hour, obs.New())

	lease, done := coord.Lease("flaky")
	if done || lease == nil {
		t.Fatalf("lease = %v, done = %v", lease, done)
	}
	// With an hour-long TTL nothing would expire; the explicit fail must
	// release it.
	coord.Fail(FailRequest{Worker: "flaky", Lease: lease.ID, Error: "injected"})
	lease2, done := coord.Lease("other")
	if done || lease2 == nil {
		t.Fatalf("lease after fail = %v, done = %v", lease2, done)
	}
	if lease2.Start != lease.Start || lease2.End != lease.End {
		t.Errorf("reassigned range [%d,%d), want [%d,%d)", lease2.Start, lease2.End, lease.Start, lease.End)
	}
}

// TestFailFromOtherWorkerKeepsLease pins that a fail report releases a
// range only for the worker holding its lease: lease IDs are
// predictable, so another worker naming one must not hand the range out
// twice.
func TestFailFromOtherWorkerKeepsLease(t *testing.T) {
	spec := testSpec()
	coord, _ := newTestCoordinator(t, spec, spec.Networks*spec.Runs, time.Hour, obs.New())

	lease, done := coord.Lease("A")
	if done || lease == nil {
		t.Fatalf("lease = %v, done = %v", lease, done)
	}
	coord.Fail(FailRequest{Worker: "B", Lease: lease.ID, Error: "forged"})
	if got, _ := coord.Lease("C"); got != nil {
		t.Fatalf("worker C leased [%d,%d) while A still holds lease %s", got.Start, got.End, lease.ID)
	}
	if r := coord.Status().Ranges[0]; r.Worker != "A" || r.Lease != lease.ID {
		t.Errorf("range held by %q under %q, want A under %q", r.Worker, r.Lease, lease.ID)
	}
}

// TestFailWithoutWorkerIsRejected pins that the fail endpoint, like the
// lease and upload endpoints, answers 400 to a request naming no worker,
// and that such a request registers no phantom worker.
func TestFailWithoutWorkerIsRejected(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	coord, srv := newTestCoordinator(t, spec, 3, time.Hour, reg)

	lease, _ := coord.Lease("A")
	body, err := json.Marshal(FailRequest{Lease: lease.ID, Error: "anonymous"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/dist/fail", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fail without worker: status %d, want 400", resp.StatusCode)
	}
	if ws := coord.Status().Workers; len(ws) != 1 || ws[0] != "A" {
		t.Errorf("workers = %q, want [A]", ws)
	}
	if got := reg.Gauge("dist.workers_live").Value(); got != 1 {
		t.Errorf("dist.workers_live = %v, want 1", got)
	}
}

// TestLeaseExpiresAtItsDeadline pins that a lease expires when its
// deadline passes, with nothing ticking: once the clock is past it, and
// before any Lease call, Status shows the range free and counts no live
// worker, a late upload under the stale lease is accepted but does not
// revive the lease, and the next Lease hands the range on, counting the
// expiry once.
func TestLeaseExpiresAtItsDeadline(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	coord, _ := newTestCoordinator(t, spec, 3, time.Hour, reg)
	clock := time.Unix(1e9, 0)
	coord.now = func() time.Time { return clock }

	lease, done := coord.Lease("A")
	if done || lease == nil {
		t.Fatalf("lease = %v, done = %v", lease, done)
	}
	clock = clock.Add(time.Hour + time.Second)

	if r := coord.Status().Ranges[0]; r.Worker != "" || r.Lease != "" {
		t.Errorf("expired range held by %q under %q, want it free", r.Worker, r.Lease)
	}
	if got := reg.Gauge("dist.workers_live").Value(); got != 0 {
		t.Errorf("dist.workers_live = %v after a TTL of silence, want 0", got)
	}
	resp, err := coord.Upload(lease.ID, "A", []sim.CellLine{wellFormedLine(spec, cellOf(lease.Start, spec.Runs))})
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("late upload: %+v, %v; want 1 cell accepted", resp, err)
	}
	if r := coord.Status().Ranges[0]; r.Lease != "" {
		t.Errorf("late upload revived lease %q", r.Lease)
	}
	next, _ := coord.Lease("B")
	if next == nil || next.Start != lease.Start {
		t.Fatalf("next lease = %+v, want the expired range [%d,%d)", next, lease.Start, lease.End)
	}
	if got := counterValue(reg, "dist.leases_expired"); got != 1 {
		t.Errorf("dist.leases_expired = %d, want 1", got)
	}
}

// TestFailedCommitIsNotAcked pins fsync-before-ack at the wire: when the
// coordinator cannot commit a cell to its journal, the upload must not
// answer 200, and the worker's flush must surface the failure so the
// range fails instead of treating its cells as durable.
func TestFailedCommitIsNotAcked(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	coord, srv := newTestCoordinator(t, spec, spec.Networks*spec.Runs, time.Minute, reg)
	// A closed journal fails every append, as a full or vanished disk would.
	if err := coord.journal.Close(); err != nil {
		t.Fatal(err)
	}

	line, err := json.Marshal(wellFormedLine(spec, sim.CellKey{Network: 0, Run: 0}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/api/v1/dist/cells?lease=r0-a1&worker=w1",
		"application/jsonl", bytes.NewReader(append(line, '\n')))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("upload answered 200 although the journal commit failed")
	}

	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{Coordinator: srv.URL, ID: "w1"}
	lease := &Lease{ID: "r0-a1", Start: 0, End: spec.Networks * spec.Runs}
	if err := w.runRange(context.Background(), protocol, factories, lease); err == nil {
		t.Fatal("runRange returned nil for cells the coordinator failed to commit")
	}
	if got := counterValue(reg, "dist.cells_accepted"); got != 0 {
		t.Errorf("dist.cells_accepted = %d after failed commits, want 0", got)
	}
}

// failFrom is a generator whose calls from the n-th on (0-based) fail.
// At one engine worker the engine generates network i just before its
// first cell, so failFrom{n: 1} fails the first cell of network 1.
type failFrom struct {
	gen.Generator
	n     int
	calls atomic.Int32
}

func (g *failFrom) Generate(seed rng.Seed) (*graph.Graph, error) {
	if int(g.calls.Add(1))-1 >= g.n {
		return nil, fault.ErrInjected
	}
	return g.Generator.Generate(seed)
}

// TestWorkerFlushesCellsBeforeFailedCell: the cells a range completed
// before its failed cell are batched, not yet uploaded, when the engine
// stops. They must be durable at the coordinator before Run returns the
// *sim.CellError, so a resume never recomputes them.
func TestWorkerFlushesCellsBeforeFailedCell(t *testing.T) {
	spec := testSpec() // one engine worker, cells in index order
	reg := obs.New()
	coord, srv := newTestCoordinator(t, spec, spec.Networks*spec.Runs, time.Minute, reg)
	w := &Worker{
		Coordinator:  srv.URL,
		ID:           "w1",
		PollInterval: 10 * time.Millisecond,
		Logf:         t.Logf,
		Mutate:       func(p *sim.Protocol) { p.Gen = &failFrom{Generator: p.Gen, n: 1} },
	}
	err := w.Run(context.Background())
	if !errors.As(err, new(*sim.CellError)) {
		t.Fatalf("Run = %v, want a *sim.CellError", err)
	}
	// Cell k = 4 is (1,0), the first of network 1: cells 0..2 come before it.
	if got := coord.Status().Committed; got != spec.Runs {
		t.Errorf("%d cells durable when Run returned, want the %d before the failed one", got, spec.Runs)
	}
	for run := 0; run < spec.Runs; run++ {
		if !coord.journal.Done(sim.CellKey{Network: 0, Run: run}) {
			t.Errorf("cell (0,%d) not durable", run)
		}
	}
}

// TestWorkerSlowCellsUploadAlone: a cell that completes more than
// uploadEvery after the range's last upload flushes at once, so with a
// Throttle above uploadEvery every cell is its own upload — the lease
// heartbeat keeps the rhythm of the cells.
func TestWorkerSlowCellsUploadAlone(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	_, srv := newTestCoordinator(t, spec, spec.Networks*spec.Runs, time.Minute, reg)
	w := &Worker{
		Coordinator:  srv.URL,
		ID:           "slow",
		PollInterval: 10 * time.Millisecond,
		Throttle:     uploadEvery + 20*time.Millisecond,
		Logf:         t.Logf,
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cells := int64(spec.Networks * spec.Runs)
	if got := counterValue(reg, "dist.upload_requests"); got != cells {
		t.Errorf("dist.upload_requests = %d, want one per cell (%d)", got, cells)
	}
	if got := counterValue(reg, "dist.uploads"); got != cells {
		t.Errorf("dist.uploads = %d, want %d", got, cells)
	}
}

// wellFormedLine is a cell line the coordinator accepts for spec: one
// record with a (zero) result per roster policy, all carrying key.
func wellFormedLine(spec serv.Spec, key sim.CellKey) sim.CellLine {
	cl := sim.CellLine{CellKey: key}
	for _, ps := range spec.Policies {
		cl.Records = append(cl.Records, sim.Record{Policy: ps.Name, Network: key.Network, Run: key.Run, Result: &core.Result{}})
	}
	return cl
}

// TestUploadRejectsMalformedCell: a line that is not a complete cell of
// the grid is rejected before the journal commit. A committed line is
// replayed on every resume, so a null-Result line that reached the
// journal would panic the handler folding it and then every resume.
func TestUploadRejectsMalformedCell(t *testing.T) {
	spec := testSpec()
	reg := obs.New()
	dir := t.TempDir()
	coord, err := New(Config{Spec: spec, Dir: dir, RangeSize: 2, Metrics: reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStrictServer(t, coord.Handler())
	t.Cleanup(srv.Close)

	body := `{"network":0,"run":0,"records":[{"Policy":"abm","Network":0,"Run":0,"Result":null}]}`
	resp, err := http.Post(srv.URL+"/api/v1/dist/cells?worker=w1", "application/jsonl", strings.NewReader(body))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var up UploadResponse
	err = json.NewDecoder(resp.Body).Decode(&up)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d, decode err %v", resp.StatusCode, err)
	}
	if up.Rejected != 1 || up.Accepted != 0 {
		t.Errorf("upload response %+v, want exactly 1 rejected", up)
	}

	// Each rule on its own, on an otherwise well-formed line.
	key := sim.CellKey{Network: 1, Run: 2}
	for name, mutate := range map[string]func(*sim.CellLine){
		"nil result":      func(cl *sim.CellLine) { cl.Records[1].Result = nil },
		"record network":  func(cl *sim.CellLine) { cl.Records[0].Network = 0 },
		"record run":      func(cl *sim.CellLine) { cl.Records[1].Run = 0 },
		"missing policy":  func(cl *sim.CellLine) { cl.Records = cl.Records[:1] },
		"repeated policy": func(cl *sim.CellLine) { cl.Records[1].Policy = cl.Records[0].Policy },
		"unknown policy":  func(cl *sim.CellLine) { cl.Records[0].Policy = "abm" },
		"extra record":    func(cl *sim.CellLine) { cl.Records = append(cl.Records, cl.Records[0]) },
		"key out of grid": func(cl *sim.CellLine) { cl.Run = spec.Runs },
	} {
		cl := wellFormedLine(spec, key)
		mutate(&cl)
		got, err := coord.Upload("", "w1", []sim.CellLine{cl})
		if err != nil || got.Rejected != 1 || got.Accepted != 0 {
			t.Errorf("%s: Upload = %+v, %v; want 1 rejected", name, got, err)
		}
	}
	if n := coord.journal.Cells(); n != 0 {
		t.Fatalf("journal holds %d cells after malformed uploads, want 0", n)
	}
	if got := counterValue(reg, "dist.cells_rejected"); got != 9 {
		t.Errorf("dist.cells_rejected = %d, want 9", got)
	}

	// The journal must still resume cleanly.
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	coord2, err := New(Config{Spec: spec, Dir: dir, Resume: true, Logf: t.Logf})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	defer coord2.Close()
	if st := coord2.Status(); st.Committed != 0 || st.Records != 0 {
		t.Errorf("resumed status committed=%d records=%d, want 0/0", st.Committed, st.Records)
	}
}

// TestCoordinatorCloseSurfacesJournalFault: Close is the journal's last
// fsync, so its failure must reach the caller (accudist's run), or a
// coordinator would exit cleanly over cells that are not durable.
func TestCoordinatorCloseSurfacesJournalFault(t *testing.T) {
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	coord, err := New(Config{Spec: testSpec(), Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	rec.Fail(vfs.Fault{Kind: vfs.OpSync, Path: "cells.jsonl", Err: syscall.EIO})
	if err := coord.Close(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Close err = %v, want the journal's fsync error", err)
	}
}

// postCells posts body as a cell upload and decodes the answer of a 200.
func postCells(t *testing.T, srv *httptest.Server, body []byte) (int, UploadResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/api/v1/dist/cells?worker=w1", "application/jsonl", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var up UploadResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, up
}

// TestUploadBodyGrammar pins the upload grammar: one JSON cell line per
// line, blank lines (JSON whitespace only) skipped, CRLF endings and a
// last line without its newline accepted; two values on one line, one
// value over several lines, or a line of other whitespace answered 400.
func TestUploadBodyGrammar(t *testing.T) {
	spec := testSpec()
	var encoded [][]byte
	for run := 0; run < 2; run++ {
		cl := wellFormedLine(spec, sim.CellKey{Network: 0, Run: run})
		b, err := sim.EncodeCellLine(&cl)
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, b)
	}
	a, b := encoded[0], encoded[1]
	noNL := func(line []byte) string { return strings.TrimSuffix(string(line), "\n") }
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, a, "", "  "); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		body   string
		status int
		lines  int
	}{
		{"journal lines", string(a) + string(b), http.StatusOK, 2},
		{"empty body", "", http.StatusOK, 0},
		{"blank lines", "\n \t\n" + string(a) + "\r\n\n" + string(b) + "\n", http.StatusOK, 2},
		{"CRLF endings", noNL(a) + "\r\n" + noNL(b) + "\r\n", http.StatusOK, 2},
		{"last line without newline", string(a) + noNL(b), http.StatusOK, 2},
		{"two values on one line", noNL(a) + noNL(b) + "\n", http.StatusBadRequest, 0},
		{"value over several lines", pretty.String(), http.StatusBadRequest, 0},
		{"line of non-JSON whitespace", string(a) + "\v\n", http.StatusBadRequest, 0},
	} {
		_, srv := newTestCoordinator(t, spec, 2, time.Minute, nil)
		status, up := postCells(t, srv, []byte(tc.body))
		if status != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.status)
		}
		if up.Accepted != tc.lines || up.Duplicate != 0 || up.Rejected != 0 {
			t.Errorf("%s: upload response %+v, want %d accepted", tc.name, up, tc.lines)
		}
	}
}

// TestJournalIsUploadBody checks that the journal and the upload are one
// format, both ways: a local RunJournaled journal posted whole to a
// fresh coordinator is accepted cell for cell and reaches the local
// digest, and a local run resumed from the coordinator's cells.jsonl
// computes no cell and reaches the same digest.
func TestJournalIsUploadBody(t *testing.T) {
	spec := testSpec()
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	local := filepath.Join(t.TempDir(), "local.jsonl")
	dig := sim.NewRecordDigest()
	if err := sim.RunJournaled(ctx, protocol, factories, local, false, dig.Collect, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	want := dig.Sum()
	body, err := os.ReadFile(local)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	coord, err := New(Config{Spec: spec, Dir: dir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	srv := newStrictServer(t, coord.Handler())
	status, up := postCells(t, srv, body)
	srv.Close()
	cells := spec.Networks * spec.Runs
	if status != http.StatusOK || up.Accepted != cells || up.Duplicate != 0 || up.Rejected != 0 || !up.Done {
		t.Fatalf("posting the journal: status %d, response %+v; want all %d cells accepted", status, up, cells)
	}
	res, err := coord.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Digest != want {
		t.Errorf("coordinator digest %s, want the local %s", res.Digest, want)
	}
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	resumed := sim.NewRecordDigest()
	replayed, computed := false, 0
	err = sim.RunJournaled(ctx, protocol, factories, filepath.Join(dir, "cells.jsonl"), true, func(rec sim.Record) {
		resumed.Collect(rec)
		if replayed {
			computed++
		}
	}, func() { replayed = true }, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if computed != 0 {
		t.Errorf("resuming from the coordinator's journal computed %d record(s), want 0", computed)
	}
	if got := resumed.Sum(); got != want {
		t.Errorf("digest resumed from the coordinator's journal %s, want %s", got, want)
	}
}
