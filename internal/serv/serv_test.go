package serv

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpec is a valid tiny spec: the facebook preset floors at 64 nodes,
// so validation passes and (in the real-executor tests) cells run fast.
func testSpec() Spec {
	cautious := 4 // the 64-node floor graph lacks candidates for the default 10
	return Spec{
		Preset:   "facebook",
		Scale:    0.001,
		Cautious: &cautious,
		Policies: []PolicySpec{{Name: "random"}, {Name: "maxdegree"}},
		Networks: 2,
		Runs:     2,
		K:        3,
		Seed:     42,
		Workers:  1,
	}
}

// testSpecDoc is testSpec as a JSON object with extra fields merged in,
// for documents a Spec can no longer express.
func testSpecDoc(tb testing.TB, extra map[string]any) map[string]any {
	tb.Helper()
	b, err := json.Marshal(testSpec())
	if err != nil {
		tb.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		tb.Fatal(err)
	}
	for k, v := range extra {
		doc[k] = v
	}
	return doc
}

// legacyJobDoc is a running job document as older versions wrote it: the
// retired tenant, priority, attempt and maxAttempts fields, and the
// retired cell-fault fields of its spec.
func legacyJobDoc(tb testing.TB, id string) []byte {
	tb.Helper()
	doc, err := json.Marshal(map[string]any{
		"id": id, "tenant": "team_a", "priority": 5, "seq": 7,
		"spec":  testSpecDoc(tb, map[string]any{"retries": 1, "continueOnError": true}),
		"state": "running", "attempt": 1, "maxAttempts": 3,
		"submittedAt": time.Now().UTC(), "progress": map[string]int64{"total": 8},
	})
	if err != nil {
		tb.Fatalf("marshal legacy job: %v", err)
	}
	return doc
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// waitState polls until the job reaches the wanted state.
func waitState(t *testing.T, s *Server, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := s.Get(id)
	t.Fatalf("job %s: state %s, want %s (error %q)", id, j.State, want, j.Error)
	return Job{}
}

// instantOK is an execute stub that succeeds immediately.
func instantOK(context.Context, *entry) (*Result, error) {
	return &Result{Digest: "stub"}, nil
}

// blockUntilCancel is an execute stub that parks until the job context is
// cancelled (by client cancel or drain).
func blockUntilCancel(ctx context.Context, _ *entry) (*Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestSubmitAssignsIDAndPersists(t *testing.T) {
	s := newTestServer(t, Config{})
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.ID != "j000000" {
		t.Errorf("auto ID = %q, want j000000", job.ID)
	}
	if job.State != StateQueued {
		t.Errorf("state = %s, want queued", job.State)
	}
	if want := int64(8); job.Progress.Total != want { // 2 nets × 2 runs × 2 policies
		t.Errorf("total = %d, want %d", job.Progress.Total, want)
	}
	if _, err := os.Stat(s.store.jobPath(job.ID)); err != nil {
		t.Errorf("job document not persisted: %v", err)
	}
}

func TestSubmitRejectsInvalid(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"bad id", SubmitRequest{ID: "Bad-ID", Spec: testSpec()}},
		{"unknown preset", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Preset = "nope"; return sp }()}},
		{"no policies", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Policies = nil; return sp }()}},
		{"unknown policy", SubmitRequest{Spec: func() Spec {
			sp := testSpec()
			sp.Policies = []PolicySpec{{Name: "oracle"}}
			return sp
		}()}},
		{"duplicate policy", SubmitRequest{Spec: func() Spec {
			sp := testSpec()
			sp.Policies = []PolicySpec{{Name: "random"}, {Name: "random"}}
			return sp
		}()}},
		{"zero runs", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Runs = 0; return sp }()}},
		{"NaN scale", SubmitRequest{Spec: func() Spec { sp := testSpec(); sp.Scale = math.NaN(); return sp }()}},
	}
	for _, tc := range cases {
		if _, err := s.Submit(tc.req); err == nil {
			t.Errorf("%s: Submit accepted, want error", tc.name)
		}
	}
}

func TestDuplicateSubmit(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(SubmitRequest{ID: "mine", Spec: testSpec()}); err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	_, err := s.Submit(SubmitRequest{ID: "mine", Spec: testSpec()})
	if !errors.Is(err, ErrDuplicateJob) {
		t.Fatalf("second Submit err = %v, want ErrDuplicateJob", err)
	}
	if got := counterValue(t, s, "serv.duplicate_rejections"); got != 1 {
		t.Errorf("duplicate_rejections = %v, want 1", got)
	}
}

// counterValue reads one counter from the server registry snapshot.
func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, c := range s.Registry().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	t.Fatalf("counter %s not in snapshot", name)
	return 0
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestLifecycleDone(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = func(ctx context.Context, e *entry) (*Result, error) {
		e.done.Store(8)
		return &Result{Records: 8, Digest: "abc"}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil || done.Result.Digest != "abc" {
		t.Fatalf("Result = %+v, want digest abc", done.Result)
	}
	if done.Progress.Done != 8 {
		t.Errorf("Progress.Done = %d, want 8", done.Progress.Done)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Errorf("StartedAt/FinishedAt not set: %+v", done)
	}
}

func TestCancelQueued(t *testing.T) {
	s := newTestServer(t, Config{}) // workers never started: stays queued
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got, err := s.Cancel(job.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.State != StateCancelled {
		t.Errorf("state = %s, want cancelled", got.State)
	}
	if len(s.queue) != 0 {
		t.Errorf("queue holds %d entries after cancel, want 0", len(s.queue))
	}
}

func TestCancelRunning(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = blockUntilCancel
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateRunning)
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	got := waitState(t, s, job.ID, StateCancelled)
	if got.FinishedAt == nil {
		t.Error("FinishedAt not set on cancelled job")
	}
}

func TestCancelTerminalConflicts(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = instantOK
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)
	if _, err := s.Cancel(job.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Cancel done job err = %v, want ErrConflict", err)
	}
	if _, err := s.Cancel("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Cancel unknown job err = %v, want ErrNotFound", err)
	}
}

func TestResumeFailedJob(t *testing.T) {
	s := newTestServer(t, Config{})
	var fail = true
	var mu sync.Mutex
	s.execute = func(context.Context, *entry) (*Result, error) {
		mu.Lock()
		f := fail
		mu.Unlock()
		if f {
			return nil, errors.New("boom")
		}
		return &Result{Digest: "recovered"}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if failed := waitState(t, s, job.ID, StateFailed); failed.Error != "boom" {
		t.Errorf("Error = %q, want boom", failed.Error)
	}

	if _, err := s.Resume("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resume unknown err = %v, want ErrNotFound", err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	resumed, err := s.Resume(job.ID)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if resumed.State != StateQueued || resumed.Error != "" {
		t.Errorf("resumed job = state %s error %q, want queued with no error", resumed.State, resumed.Error)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil || done.Result.Digest != "recovered" {
		t.Fatalf("Result = %+v, want digest recovered", done.Result)
	}
	if _, err := s.Resume(job.ID); !errors.Is(err, ErrConflict) {
		t.Fatalf("Resume done job err = %v, want ErrConflict", err)
	}
}

// recordOrder swaps in an execute stub that appends each claimed job's ID
// to the returned log; fail, when non-nil, decides per call whether the
// execution fails.
func recordOrder(s *Server, fail func(id string) bool) func() []string {
	var mu sync.Mutex
	var order []string
	s.execute = func(_ context.Context, e *entry) (*Result, error) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, e.job.ID)
		if fail != nil && fail(e.job.ID) {
			return nil, errors.New("scripted fault")
		}
		return &Result{}, nil
	}
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(order)
	}
}

func submitIDs(t *testing.T, s *Server, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if _, err := s.Submit(SubmitRequest{ID: id, Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %s: %v", id, err)
		}
	}
}

// TestQueueOrderBySeq pins the queue discipline: jobs run in submission
// (Seq) order, never in ID or filename order, and a resumed job takes its
// place back ahead of later submissions.
func TestQueueOrderBySeq(t *testing.T) {
	// IDs sort opposite to their Seq, so ID or filename order would show.
	ids := []string{"zz", "mm", "aa"}

	t.Run("submission", func(t *testing.T) {
		s := newTestServer(t, Config{Workers: 1})
		order := recordOrder(s, nil)
		submitIDs(t, s, append(ids, "bb")...)
		if _, err := s.Cancel("mm"); err != nil { // leaves the middle of the queue
			t.Fatalf("Cancel: %v", err)
		}
		s.Start()
		defer drain(t, s)
		waitState(t, s, "bb", StateDone)
		if got, want := order(), []string{"zz", "aa", "bb"}; !slices.Equal(got, want) {
			t.Errorf("execution order = %v, want %v", got, want)
		}
	})

	t.Run("reopen", func(t *testing.T) {
		dir := t.TempDir()
		submitIDs(t, newTestServer(t, Config{Dir: dir}), ids...)
		// os.ReadDir lists aa.json, mm.json, zz.json: the reopened queue
		// must restore Seq order on its own.
		s := newTestServer(t, Config{Dir: dir, Workers: 1})
		order := recordOrder(s, nil)
		s.Start()
		defer drain(t, s)
		waitState(t, s, "aa", StateDone)
		if got := order(); !slices.Equal(got, ids) {
			t.Errorf("execution order after reopen = %v, want %v", got, ids)
		}
	})

	t.Run("resume", func(t *testing.T) {
		s := newTestServer(t, Config{Workers: 1})
		failed := false
		order := recordOrder(s, func(id string) bool {
			first := id == "zz" && !failed
			failed = failed || first
			return first
		})
		// mm holds the only worker until zz is resumed, so aa is still
		// queued behind it when zz comes back.
		release := make(chan struct{})
		record := s.execute
		s.execute = func(ctx context.Context, e *entry) (*Result, error) {
			if e.job.ID == "mm" {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return record(ctx, e)
		}
		submitIDs(t, s, ids...)
		s.Start()
		defer drain(t, s)
		waitState(t, s, "zz", StateFailed)
		waitState(t, s, "mm", StateRunning)
		if _, err := s.Resume("zz"); err != nil {
			t.Fatalf("Resume zz: %v", err)
		}
		close(release)
		waitState(t, s, "aa", StateDone)
		if got, want := order(), []string{"zz", "mm", "zz", "aa"}; !slices.Equal(got, want) {
			t.Errorf("execution order = %v, want %v (the resumed job keeps its place)", got, want)
		}
		if j, _ := s.Get("zz"); j.State != StateDone {
			t.Errorf("zz = state %s, want done after its resume", j.State)
		}
	})
}

func TestDrainPreemptsAndRequeues(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = blockUntilCancel
	s.Start()
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateRunning)
	drain(t, s)

	got, err := s.Get(job.ID)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got.State != StateQueued {
		t.Errorf("state after drain = %s, want queued (preempted, not failed)", got.State)
	}
	if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining err = %v, want ErrDraining", err)
	}
	if _, err := s.Resume(job.ID); !errors.Is(err, ErrConflict) {
		// queued is not resumable — and must not be corrupted by the call.
		t.Fatalf("Resume queued err = %v, want ErrConflict", err)
	}
}

func TestRestartRecoversCrashedRunningJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Dir: dir})
	job, err := s.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Simulate a crash mid-run: the document says running, the process is
	// gone (no Drain, no transition).
	s.mu.Lock()
	e := s.jobs[job.ID]
	e.job.State = StateRunning
	if err := s.store.saveJob(&e.job); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	s.mu.Unlock()
	if err := os.WriteFile(s.store.jobPath("legacy"), legacyJobDoc(t, "legacy"), 0o644); err != nil {
		t.Fatalf("write legacy job: %v", err)
	}

	s2 := newTestServer(t, Config{Dir: dir})
	var got Job
	for _, id := range []string{job.ID, "legacy"} {
		j, err := s2.Get(id)
		if err != nil {
			t.Fatalf("Get(%s) after restart: %v", id, err)
		}
		if j.State != StateQueued {
			t.Errorf("%s: recovered state = %s, want queued", id, j.State)
		}
		got = j
	}
	// And both execute to completion on the new server.
	s2.execute = instantOK
	s2.Start()
	defer drain(t, s2)
	waitState(t, s2, job.ID, StateDone)
	waitState(t, s2, "legacy", StateDone)
	// Sequence numbering continues past the recovered job.
	next, err := s2.Submit(SubmitRequest{Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit on restarted server: %v", err)
	}
	if next.Seq <= got.Seq {
		t.Errorf("next Seq = %d, want > %d", next.Seq, got.Seq)
	}
}

// TestLoadRejectsForeignJobID pins that a job document cannot name files
// outside the data directory: a document whose id is invalid or differs
// from its file name fails the load, as an unparseable one does, and
// nothing is written anywhere.
func TestLoadRejectsForeignJobID(t *testing.T) {
	for _, id := range []string{"../../escaped", "b", "A", ""} {
		root := t.TempDir()
		dir := filepath.Join(root, "data")
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		doc, err := json.Marshal(map[string]any{"id": id, "state": "running", "spec": testSpec()})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", "a.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := New(Config{Dir: dir}); err == nil {
			t.Errorf("id %q in a.json: New succeeded, want a load error", id)
		}
		if out := filesOutside(t, root, dir); len(out) > 0 {
			t.Errorf("id %q in a.json: New wrote outside its data directory: %v", id, out)
		}
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	s.execute = instantOK
	s.Start()
	defer drain(t, s)

	const submitters, each = 8, 10
	var wg sync.WaitGroup
	errs := make(chan error, submitters*each)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent Submit: %v", err)
	}
	jobs := s.List("")
	if len(jobs) != submitters*each {
		t.Fatalf("List: %d jobs, want %d", len(jobs), submitters*each)
	}
	seen := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate auto-assigned ID %s", j.ID)
		}
		seen[j.ID] = true
	}
	for _, j := range jobs {
		waitState(t, s, j.ID, StateDone)
	}
}

func TestDrainLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newTestServer(t, Config{Workers: 4})
	s.execute = blockUntilCancel
	s.Start()
	for i := 0; i < 6; i++ { // more jobs than workers: some stay queued
		if _, err := s.Submit(SubmitRequest{Spec: testSpec()}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	drain(t, s)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain (idempotency): %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines: %d before, %d after drain; stacks:\n%s",
		before, runtime.NumGoroutine(), buf[:n])
}

func TestListFilters(t *testing.T) {
	s := newTestServer(t, Config{})
	submitIDs(t, s, "job0", "job1", "job2")
	if _, err := s.Cancel("job0"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got := len(s.List("")); got != 3 {
		t.Errorf("List all = %d, want 3", got)
	}
	if got := len(s.List(StateQueued)); got != 2 {
		t.Errorf("List queued = %d, want 2", got)
	}
	if got := len(s.List(StateCancelled)); got != 1 {
		t.Errorf("List cancelled = %d, want 1", got)
	}
	// Submission order.
	all := s.List("")
	for i := 1; i < len(all); i++ {
		if all[i-1].Seq >= all[i].Seq {
			t.Errorf("List not in Seq order: %v", all)
		}
	}
}

func TestMetricsMerge(t *testing.T) {
	s := newTestServer(t, Config{})
	s.execute = func(_ context.Context, e *entry) (*Result, error) {
		e.reg.Counter("sim.cells").Add(4)
		return &Result{}, nil
	}
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{ID: "metricjob", Spec: testSpec()})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, job.ID, StateDone)

	snap, err := s.Metrics("")
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	var foundServ, foundJob bool
	for _, c := range snap.Counters {
		switch c.Name {
		case "serv.jobs_completed":
			foundServ = c.Value == 1
		case "job.metricjob.sim.cells":
			foundJob = c.Value == 4
		}
	}
	if !foundServ || !foundJob {
		t.Errorf("merged snapshot missing serv/job counters (serv %v, job %v): %+v", foundServ, foundJob, snap.Counters)
	}

	jobSnap, err := s.Metrics("metricjob")
	if err != nil {
		t.Fatalf("Metrics(job): %v", err)
	}
	var unprefixed bool
	for _, c := range jobSnap.Counters {
		if c.Name == "sim.cells" && c.Value == 4 {
			unprefixed = true
		}
	}
	if !unprefixed {
		t.Errorf("job snapshot missing unprefixed sim.cells: %+v", jobSnap.Counters)
	}
	if _, err := s.Metrics("nosuch"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Metrics(unknown) err = %v, want ErrNotFound", err)
	}
}

// TestAdmissionChecksShapeOnly pins the admission contract: a spec whose
// networks have too few cautious-user candidates passes Submit, which
// generates nothing, and the job then ends failed with the set-up's
// shortfall as its error.
func TestAdmissionChecksShapeOnly(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Start()
	defer drain(t, s)
	spec := Spec{
		Preset:   "facebook",
		Scale:    0.02,
		Policies: []PolicySpec{{Name: "random"}},
		Networks: 1,
		Runs:     1,
		K:        5,
		Seed:     1,
	}
	job, err := s.Submit(SubmitRequest{Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v, want the spec admitted on its shape", err)
	}
	failed := waitState(t, s, job.ID, StateFailed)
	if !strings.Contains(failed.Error, "not enough cautious-user candidates") {
		t.Errorf("Error = %q, want the shortfall of cautious-user candidates", failed.Error)
	}
}
