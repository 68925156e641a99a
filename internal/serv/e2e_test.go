package serv

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"github.com/accu-sim/accu/internal/sim"
)

// referenceRun executes the spec's protocol directly — no service, no
// checkpoint — and returns the canonical digest and record count a job of
// the same spec must reproduce.
func referenceRun(t *testing.T, spec Spec) (string, int) {
	t.Helper()
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	dig := sim.NewRecordDigest()
	if err := sim.Run(context.Background(), protocol, factories, dig.Collect); err != nil {
		t.Fatalf("reference sim.Run: %v", err)
	}
	return dig.Sum(), dig.Count()
}

// TestExecuteJobMatchesDirectRun runs one job through the real executor
// and checks the result digest against an uninterrupted in-process run.
func TestExecuteJobMatchesDirectRun(t *testing.T) {
	spec := testSpec()
	wantDigest, wantRecords := referenceRun(t, spec)

	s := newTestServer(t, Config{})
	s.Start()
	defer drain(t, s)
	job, err := s.Submit(SubmitRequest{ID: "direct", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil {
		t.Fatal("done job has no Result")
	}
	if done.Result.Digest != wantDigest {
		t.Errorf("digest = %s, want %s", done.Result.Digest, wantDigest)
	}
	if done.Result.Records != wantRecords {
		t.Errorf("records = %d, want %d", done.Result.Records, wantRecords)
	}
	if len(done.Result.Policies) != len(spec.Policies) {
		t.Errorf("policy results = %d, want %d", len(done.Result.Policies), len(spec.Policies))
	}
	for _, pr := range done.Result.Policies {
		if pr.FinalBenefit.Count == 0 {
			t.Errorf("policy %s: empty FinalBenefit aggregate", pr.Policy)
		}
		if pr.FinalBenefitSketch.Count != pr.FinalBenefit.Count {
			t.Errorf("policy %s: sketch count %d != Welford count %d",
				pr.Policy, pr.FinalBenefitSketch.Count, pr.FinalBenefit.Count)
		}
		if pr.CautiousFriendsSketch.Count != pr.CautiousFriends.Count {
			t.Errorf("policy %s: cautious sketch count %d != Welford count %d",
				pr.Policy, pr.CautiousFriendsSketch.Count, pr.CautiousFriends.Count)
		}
	}
}

// TestCancelResumeBitIdentical interrupts a real run mid-grid with a
// client cancel, resumes it, and checks the finished job's digest is
// bit-identical to an uninterrupted run: the checkpoint journal plus the
// deterministic per-cell seeding make the interruption invisible.
func TestCancelResumeBitIdentical(t *testing.T) {
	spec := testSpec()
	spec.Networks = 2
	spec.Runs = 20 // 80 records: wide enough to cancel mid-grid reliably
	wantDigest, wantRecords := referenceRun(t, spec)

	s := newTestServer(t, Config{})
	// First execution: cancel from inside the engine's progress callback
	// once record 3 is collected (a cell is durable by then), so the
	// interruption lands mid-grid however fast the engine is. The
	// post-Resume execution must run to the end, so a Once gates it.
	var once sync.Once
	s.mutate = func(p *sim.Protocol) {
		once.Do(func() {
			progress := p.OnProgress
			p.OnProgress = func(pr sim.Progress) {
				progress(pr)
				if pr.Done == 3 {
					if _, err := s.Cancel("resumable"); err != nil {
						t.Errorf("mid-run Cancel: %v", err)
					}
				}
			}
		})
	}
	s.Start()
	defer drain(t, s)

	job, err := s.Submit(SubmitRequest{ID: "resumable", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	cancelled := waitState(t, s, job.ID, StateCancelled)
	if cancelled.Progress.Done == 0 {
		t.Fatal("cancelled with zero records: interruption did not land mid-grid")
	}
	if cancelled.Progress.Done >= int64(wantRecords) {
		t.Fatalf("cancelled after %d/%d records: interruption landed too late", cancelled.Progress.Done, wantRecords)
	}
	if _, err := os.Stat(s.store.checkpointPath(job.ID)); err != nil {
		t.Fatal("no checkpoint journal after cancelled run")
	}

	if _, err := s.Resume(job.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	done := waitState(t, s, job.ID, StateDone)
	if done.Result == nil {
		t.Fatal("resumed job has no Result")
	}
	if done.Result.Digest != wantDigest {
		t.Errorf("resumed digest = %s, want %s (bit-identical to uninterrupted run)", done.Result.Digest, wantDigest)
	}
	if done.Result.Records != wantRecords {
		t.Errorf("resumed records = %d, want %d", done.Result.Records, wantRecords)
	}
	if done.Progress.Resumed == 0 {
		t.Error("Progress.Resumed = 0, want the checkpointed cells of the cancelled execution")
	}
	if done.Progress.Done+done.Progress.Resumed != int64(wantRecords) {
		t.Errorf("Done %d + Resumed %d != %d", done.Progress.Done, done.Progress.Resumed, wantRecords)
	}
}

// TestRestartResumeBitIdentical simulates the crash path: the process
// "dies" with a job half done (running state persisted, no clean
// transition), a new server over the same directory recovers it, and the
// finished digest still matches the uninterrupted reference.
func TestRestartResumeBitIdentical(t *testing.T) {
	spec := testSpec()
	spec.Networks = 2
	spec.Runs = 20
	wantDigest, wantRecords := referenceRun(t, spec)

	dir := t.TempDir()
	s1 := newTestServer(t, Config{Dir: dir})
	// Run the first execution with a context we abandon from inside the engine's
	// progress callback at record 3, then persist the running state as a
	// crash would leave it.
	crashed := make(chan struct{})
	var stop context.CancelFunc
	s1.execute = func(ctx context.Context, e *entry) (*Result, error) {
		runCtx, cancel := context.WithCancel(ctx)
		stop = cancel
		res, err := s1.executeJob(runCtx, e)
		cancel()
		close(crashed)
		return res, err
	}
	s1.mutate = func(p *sim.Protocol) {
		progress := p.OnProgress
		p.OnProgress = func(pr sim.Progress) {
			progress(pr)
			if pr.Done == 3 {
				stop()
			}
		}
	}
	s1.Start()
	job, err := s1.Submit(SubmitRequest{ID: "crashjob", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-crashed
	waitState(t, s1, job.ID, StateFailed) // context cancel with no cause = execution error
	// Forge the crash: rewrite the document as if the process died while
	// running, then abandon s1 without draining it.
	s1.mu.Lock()
	e := s1.jobs[job.ID]
	e.job.State = StateRunning
	e.job.Error = ""
	if err := s1.store.saveJob(&e.job); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	s1.mu.Unlock()
	drain(t, s1)

	s2 := newTestServer(t, Config{Dir: dir})
	recovered, err := s2.Get(job.ID)
	if err != nil {
		t.Fatalf("Get after restart: %v", err)
	}
	if recovered.State != StateQueued {
		t.Fatalf("recovered state = %s, want queued", recovered.State)
	}
	s2.Start()
	defer drain(t, s2)
	done := waitState(t, s2, job.ID, StateDone)
	if done.Result == nil {
		t.Fatal("recovered job has no Result")
	}
	if done.Result.Digest != wantDigest {
		t.Errorf("post-restart digest = %s, want %s", done.Result.Digest, wantDigest)
	}
	if done.Result.Records != wantRecords {
		t.Errorf("post-restart records = %d, want %d", done.Result.Records, wantRecords)
	}
	if done.Progress.Resumed == 0 {
		t.Error("Progress.Resumed = 0, want checkpointed cells from before the crash")
	}
}

// TestRestartLogsDroppedCheckpointCells corrupts a middle line of a job
// checkpoint and restarts the server on it. The cells behind the corrupt
// line re-run, so the digest must not move, and the loss must be logged
// rather than silently recomputed.
func TestRestartLogsDroppedCheckpointCells(t *testing.T) {
	spec := testSpec()
	spec.Runs = 3 // 6 cells
	wantDigest, wantRecords := referenceRun(t, spec)

	dir := t.TempDir()
	s1 := newTestServer(t, Config{Dir: dir})
	s1.Start()
	job, err := s1.Submit(SubmitRequest{ID: "corrupt", Spec: spec})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s1, job.ID, StateDone)
	// Forge a crash while running, so the restarted server re-executes
	// the job from its checkpoint.
	s1.mu.Lock()
	e := s1.jobs[job.ID]
	e.job.State, e.job.Result = StateRunning, nil
	if err := s1.store.saveJob(&e.job); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	s1.mu.Unlock()
	drain(t, s1)

	path := s1.store.checkpointPath(job.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("checkpoint has %d lines, want >= 4", len(lines))
	}
	lines[1] = "{corrupt\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	s2 := newTestServer(t, Config{Dir: dir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	s2.Start()
	defer drain(t, s2)
	done := waitState(t, s2, job.ID, StateDone)
	if done.Result == nil || done.Result.Digest != wantDigest || done.Result.Records != wantRecords {
		t.Errorf("result after corrupt resume = %+v, want digest %s over %d records", done.Result, wantDigest, wantRecords)
	}
	mu.Lock()
	defer mu.Unlock()
	want := "job corrupt: warning: " + path + ": corrupt journal line discarded 4 valid completed cell(s)"
	for _, l := range logs {
		if strings.HasPrefix(l, want) {
			return
		}
	}
	t.Errorf("no %q log line in:\n%s", want, strings.Join(logs, "\n"))
}
