package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/vfs"
)

// marshalRecords serializes a record set in (policy, network, run) order
// so two collections can be compared byte for byte regardless of
// scheduling.
func marshalRecords(t *testing.T, recs []Record) []byte {
	t.Helper()
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		return a.Run < b.Run
	})
	out, err := json.Marshal(sorted)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCellJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	committed := []CellLine{
		{CellKey: CellKey{Network: 0, Run: 0}, Records: []Record{{Policy: "a", Network: 0, Run: 0, Result: &core.Result{Benefit: 1}}}},
		{CellKey: CellKey{Network: 1, Run: 2}, Records: []Record{{Policy: "a", Network: 1, Run: 2, Result: &core.Result{Benefit: 7}}}},
	}
	for _, cl := range committed {
		if err := j.Commit(cl.CellKey, cl.Records); err != nil {
			t.Fatal(err)
		}
	}
	if !j.Done(CellKey{Network: 1, Run: 2}) || j.Done(CellKey{Network: 1, Run: 3}) {
		t.Error("Done wrong for committed/uncommitted cells")
	}
	// Re-committing a done cell is a no-op, not a duplicate line.
	if err := j.Commit(committed[0].CellKey, committed[0].Records); err != nil {
		t.Fatal(err)
	}
	if got := j.Cells(); got != 2 {
		t.Errorf("Cells() = %d, want 2", got)
	}
	// Commit does not retain records: nothing to replay this session.
	replayed := 0
	j.Replay(func(Record) { replayed++ })
	if replayed != 0 {
		t.Errorf("fresh journal replayed %d records, want 0", replayed)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Cells(); got != 2 {
		t.Errorf("resumed Cells() = %d, want 2", got)
	}
	for _, cl := range committed {
		if !r.Done(cl.CellKey) {
			t.Errorf("resumed journal lost cell %+v", cl.CellKey)
		}
	}
	var recs []Record
	r.Replay(func(rec Record) { recs = append(recs, rec) })
	if len(recs) != 2 || recs[0].Result.Benefit != 1 || recs[1].Result.Benefit != 7 {
		t.Errorf("replayed records = %+v", recs)
	}
}

func TestCellJournalRefusesExistingWithoutResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := OpenCellJournal(path, false); !errors.Is(err, fs.ErrExist) {
		t.Errorf("reopen without resume: err = %v, want fs.ErrExist", err)
	}
	// resume=true with no existing file simply creates one.
	fresh := filepath.Join(t.TempDir(), "new.jsonl")
	r, err := OpenCellJournal(fresh, true)
	if err != nil {
		t.Fatalf("resume on missing file: %v", err)
	}
	if r.Cells() != 0 {
		t.Errorf("fresh resumed journal holds %d cells", r.Cells())
	}
	r.Close()
}

func TestCellJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(CellKey{Network: 0, Run: 0}, []Record{{Policy: "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(CellKey{Network: 0, Run: 1}, []Record{{Policy: "a"}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate a crash mid-append: a torn trailing line without newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"network":9,"run":9,"rec`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Cells(); got != 2 {
		t.Errorf("Cells() = %d after torn tail, want 2", got)
	}
	if r.Done(CellKey{Network: 9, Run: 9}) {
		t.Error("torn cell reported done")
	}
	// The journal must be re-appendable on a clean line boundary.
	if err := r.Commit(CellKey{Network: 2, Run: 0}, []Record{{Policy: "a"}}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("journal has %d lines, want 3:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var cl CellLine
		if err := json.Unmarshal(line, &cl); err != nil {
			t.Errorf("unparseable line after truncate+append: %q", line)
		}
	}
}

func TestCellJournalDropsCorruptLineAndTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	good, _ := json.Marshal(CellLine{CellKey: CellKey{Network: 0, Run: 0}})
	after, _ := json.Marshal(CellLine{CellKey: CellKey{Network: 0, Run: 1}})
	content := append(append(append(append(good, '\n'), []byte("{corrupt}\n")...), after...), '\n')
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Everything from the corrupt line on is dropped — only the prefix is
	// trustworthy once the append-only invariant is broken.
	if r.Cells() != 1 || !r.Done(CellKey{Network: 0, Run: 0}) || r.Done(CellKey{Network: 0, Run: 1}) {
		t.Errorf("Cells() = %d, done(0,0)=%v done(0,1)=%v; want only the prefix cell",
			r.Cells(), r.Done(CellKey{Network: 0, Run: 0}), r.Done(CellKey{Network: 0, Run: 1}))
	}
	// The discarded-but-valid cell behind the corrupt line is counted, not
	// silently re-run.
	if got := r.Dropped(); got != 1 {
		t.Errorf("Dropped() = %d, want 1", got)
	}
}

// TestCellJournalCountsDroppedCells pins the corrupt-middle-line
// accounting: truncate-forward recovery keeps its semantics (everything
// from the corrupt line on is dropped) but the valid cells it discards
// are counted — deduplicated, and excluding both the corrupt line itself
// and a torn trailing line.
func TestCellJournalCountsDroppedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	line := func(network, run int) []byte {
		b, err := json.Marshal(CellLine{CellKey: CellKey{Network: network, Run: run}, Records: []Record{{Policy: "a", Network: network, Run: run}}})
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	var content []byte
	content = append(content, line(0, 0)...)
	content = append(content, line(0, 1)...)
	content = append(content, []byte("{corrupt}\n")...)
	content = append(content, line(0, 2)...)
	content = append(content, line(0, 3)...)
	content = append(content, line(0, 1)...)                          // duplicate of a kept cell: not lost work
	content = append(content, line(0, 3)...)                          // duplicate of a dropped cell: counted once
	content = append(content, []byte(`{"network":0,"run":4,"rec`)...) // torn tail: not counted
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Cells(); got != 2 {
		t.Errorf("Cells() = %d, want the 2 cells before the corrupt line", got)
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d, want 2 (cells (0,2) and (0,3), deduped, torn tail excluded)", got)
	}
	// The journal is truncated at the corrupt line and re-appendable: the
	// dropped cells can simply be committed again.
	if err := r.Commit(CellKey{Network: 0, Run: 2}, []Record{{Policy: "a", Network: 0, Run: 2}}); err != nil {
		t.Fatal(err)
	}
	if r.Cells() != 3 {
		t.Errorf("Cells() = %d after recommitting a dropped cell, want 3", r.Cells())
	}
}

// TestCellJournalLoadsLongLines streams lines longer than the loader's
// read buffer: a long cell between two short ones, then a torn trailing
// line longer than the buffer, which is truncated away. The long cell
// replays intact, and the journal stays re-appendable after it.
func TestCellJournalLoadsLongLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	steps := make([]core.Step, 3*journalReadBuffer/100) // ~100 bytes a step
	for i := range steps {
		steps[i] = core.Step{User: i, Accepted: i%3 == 0, Gain: float64(i) / 7, BenefitAfter: float64(i)}
	}
	long := []Record{{Policy: "abm", Run: 1, Result: &core.Result{Policy: "abm", Steps: steps, Benefit: 3}}}
	for run, recs := range [][]Record{{{Policy: "abm"}}, long, {{Policy: "abm", Run: 2}}} {
		if err := j.Commit(CellKey{Run: run}, recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	torn, err := json.Marshal(CellLine{CellKey: CellKey{Run: 3}, Records: long})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-1]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	r.Replay(func(rec Record) { recs = append(recs, rec) })
	if r.Cells() != 3 || r.Done(CellKey{Run: 3}) || len(recs) != 3 {
		t.Fatalf("resumed %d cells, %d records, torn cell done %v; want 3, 3, false", r.Cells(), len(recs), r.Done(CellKey{Run: 3}))
	}
	if !reflect.DeepEqual(recs[1], long[0]) {
		t.Error("the long cell replayed altered")
	}
	if err := r.Commit(CellKey{Run: 4}, []Record{{Policy: "abm", Run: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Cells() != 4 || r.Dropped() != 0 {
		t.Errorf("after re-append: %d cells, %d dropped; want 4, 0", r.Cells(), r.Dropped())
	}
}

// TestCellJournalSyncEachCommit exercises the sync-on-commit path: under
// SyncEachCommit every commit fsyncs (observable only as "still
// correct"), a duplicate commit writes nothing, and the journal
// round-trips.
func TestCellJournalSyncEachCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEachCommit()
	for run := 0; run < 3; run++ {
		if err := j.Commit(CellKey{Network: 0, Run: run}, []Record{{Policy: "a", Network: 0, Run: run}}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate commit: no write, no sync, no error.
	if err := j.Commit(CellKey{Network: 0, Run: 0}, nil); err != nil {
		t.Fatal(err)
	}
	// Without Close, the cells must already be durable on disk: reopening
	// the raw file sees every committed line.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 3 {
		t.Errorf("journal holds %d lines before Close, want 3", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Cells() != 3 || r.Dropped() != 0 {
		t.Errorf("Cells() = %d Dropped() = %d, want 3 and 0", r.Cells(), r.Dropped())
	}
}

// TestCellJournalFailedSyncLeavesCellUndone pins that a cell is done only
// after its fsync succeeded. The journal's file is a pipe's write end,
// which accepts the write and fails Sync (EINVAL). Under SyncEachCommit the
// failed Commit must leave the cell undone and uncounted, and a retry must
// fail again rather than return nil as a duplicate; an accudist
// coordinator would otherwise ack the retried upload without ever making
// its records durable.
func TestCellJournalFailedSyncLeavesCellUndone(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j := &CellJournal{f: w, done: make(map[CellKey]bool)}
	defer j.Close()
	j.SyncEachCommit()
	key := CellKey{Network: 0, Run: 0}
	recs := []Record{{Policy: "a", Network: 0, Run: 0, Result: &core.Result{Benefit: 1}}}
	if err := j.Commit(key, recs); err == nil {
		t.Fatal("Commit on an unsyncable file returned nil")
	}
	if j.Done(key) || j.Cells() != 0 {
		t.Fatalf("after a failed fsync: Done = %v, Cells = %d; want false, 0", j.Done(key), j.Cells())
	}
	if err := j.Commit(key, recs); err == nil {
		t.Fatal("retried Commit after a failed fsync returned nil without syncing")
	}
}

// cancelAfterCommit is a Checkpointer that cancels the run once its
// first Commit has returned.
type cancelAfterCommit struct {
	Checkpointer
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelAfterCommit) Commit(key CellKey, recs []Record) error {
	err := c.Checkpointer.Commit(key, recs)
	c.once.Do(c.cancel)
	return err
}

// TestRunCheckpointKillAndResume pins the resume-determinism contract:
// kill a checkpointed grid mid-run, reopen the journal, and the union of
// replayed and freshly computed records is byte-identical to an
// uninterrupted run — at any worker count, killed at any point.
func TestRunCheckpointKillAndResume(t *testing.T) {
	p := testProtocol()
	p.Networks = 3
	p.Runs = 4
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	var baseline []Record
	if err := Run(context.Background(), p, factories, func(r Record) { baseline = append(baseline, r) }); err != nil {
		t.Fatal(err)
	}
	want := marshalRecords(t, baseline)

	for _, workers := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "cells.jsonl")
		j, err := OpenCellJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		pp := p
		pp.Workers = workers
		// Kill mid-grid: once the first cell is committed, while the other
		// workers are mid-cell.
		ctx, cancel := context.WithCancel(context.Background())
		pp.Checkpoint = &cancelAfterCommit{Checkpointer: j, cancel: cancel}
		err = Run(ctx, pp, factories, func(Record) {})
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: killed run: %v", workers, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenCellJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		checkpointed := r.Cells()
		if checkpointed == 0 || checkpointed == p.Networks*p.Runs {
			t.Fatalf("workers=%d: %d of %d cells checkpointed; kill point not mid-grid",
				workers, checkpointed, p.Networks*p.Runs)
		}
		reg := obs.New()
		pp.Metrics = reg
		pp.Checkpoint = r
		var merged []Record
		collect := func(rec Record) { merged = append(merged, rec) }
		r.Replay(collect)
		if err := Run(context.Background(), pp, factories, collect); err != nil {
			t.Fatalf("workers=%d: resumed run: %v", workers, err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got := marshalRecords(t, merged); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: resumed record set differs from uninterrupted run", workers)
		}
		if got := reg.Counter("sim.cells_skipped").Value(); got != int64(checkpointed) {
			t.Errorf("workers=%d: sim.cells_skipped = %d, want %d", workers, got, checkpointed)
		}
		// The resumed engine only counts freshly computed records.
		fresh := int64(len(merged)) - int64(checkpointed*len(factories))
		if got := reg.Counter("sim.cells").Value(); got != fresh {
			t.Errorf("workers=%d: sim.cells = %d, want %d fresh records", workers, got, fresh)
		}
	}
}

// TestRunCheckpointFullyResumedGrid resumes a journal that already holds
// every cell: Run computes nothing, delivers nothing, and still succeeds.
func TestRunCheckpointFullyResumedGrid(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = j
	var first []Record
	if err := Run(context.Background(), p, factories, func(r Record) { first = append(first, r) }); err != nil {
		t.Fatal(err)
	}
	j.Close()

	r, err := OpenCellJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	p.Checkpoint = r
	var replayed []Record
	r.Replay(func(rec Record) { replayed = append(replayed, rec) })
	live := 0
	if err := Run(context.Background(), p, factories, func(Record) { live++ }); err != nil {
		t.Fatal(err)
	}
	if live != 0 {
		t.Errorf("fully resumed grid recomputed %d records", live)
	}
	if !bytes.Equal(marshalRecords(t, replayed), marshalRecords(t, first)) {
		t.Error("replayed records differ from the original run")
	}
}

// TestResumeJournalHandsOverCells pins that Replay hands the loaded
// cells over once: the journal keeps no copy after ResumeJournal has
// replayed them, so a second Replay feeds nothing, and the resumed
// digest still equals the uninterrupted run's.
func TestResumeJournalHandsOverCells(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	want := NewRecordDigest()
	if err := Run(context.Background(), p, factories, want.Collect); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	killed := p
	killed.Checkpoint = j
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = Run(ctx, killed, factories, func(Record) {
		if seen++; seen == 9 {
			cancel()
		}
	})
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got := NewRecordDigest()
	r, err := ResumeJournal(path, true, got.Collect, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cells() == 0 {
		t.Fatal("the killed run journaled no cell")
	}
	again := 0
	r.Replay(func(Record) { again++ })
	if again != 0 {
		t.Errorf("second Replay fed %d records, want 0", again)
	}
	resumed := p
	resumed.Checkpoint = r
	if err := Run(context.Background(), resumed, factories, got.Collect); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got.Count() != want.Count() || got.Sum() != want.Sum() {
		t.Errorf("resumed digest %s over %d records, want %s over %d", got.Sum(), got.Count(), want.Sum(), want.Count())
	}
}

// TestRunJournaled pins the journaled grid run every entry point shares.
// A resumed run logs the resume before the first replayed record reaches
// collect, calls replayed once every replayed record has, and reproduces
// the uninterrupted digest. A failed fsync at Close surfaces when the run
// succeeded, and a run error wins over it.
func TestRunJournaled(t *testing.T) {
	p := testProtocol()
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	want := NewRecordDigest()
	if err := Run(context.Background(), p, factories, want.Collect); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cells.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = RunJournaled(ctx, p, factories, path, false, func(Record) {
		if seen++; seen == 9 {
			cancel()
		}
	}, nil, t.Logf)
	cancel()
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run: %v", err)
	}

	got := NewRecordDigest()
	loggedAt, replayedAt := -1, -1
	logf := func(format string, args ...any) {
		if strings.HasPrefix(format, "resuming ") {
			loggedAt = got.Count()
		}
	}
	if err := RunJournaled(context.Background(), p, factories, path, true, got.Collect,
		func() { replayedAt = got.Count() }, logf); err != nil {
		t.Fatal(err)
	}
	if loggedAt != 0 {
		t.Errorf("resume logged after %d records reached collect, want before the first", loggedAt)
	}
	if replayedAt <= 0 || replayedAt >= want.Count() {
		t.Errorf("replayed called after %d of %d records, want after the replay alone", replayedAt, want.Count())
	}
	if got.Count() != want.Count() || got.Sum() != want.Sum() {
		t.Errorf("resumed digest %s over %d records, want %s over %d", got.Sum(), got.Count(), want.Sum(), want.Count())
	}

	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	closeFault := vfs.Fault{Kind: vfs.OpSync, Path: "cells.jsonl", Err: syscall.EIO}
	rec.Fail(closeFault)
	err = RunJournaled(context.Background(), p, factories, filepath.Join(t.TempDir(), "cells.jsonl"), false, func(Record) {}, nil, t.Logf)
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("run with a failed Close: err = %v, want the fsync's EIO", err)
	}
	rec.Fail(closeFault)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	err = RunJournaled(cancelled, p, factories, filepath.Join(t.TempDir(), "cells.jsonl"), false, func(Record) {}, nil, t.Logf)
	if !errors.Is(err, context.Canceled) || errors.Is(err, syscall.EIO) {
		t.Errorf("failed run with a failed Close: err = %v, want the run's context.Canceled alone", err)
	}
}

// failingCheckpointer commits successfully n times, then fails. Run
// calls Commit from several workers at once, so n is locked.
type failingCheckpointer struct {
	mu  sync.Mutex
	n   int
	err error
}

func (c *failingCheckpointer) Done(CellKey) bool { return false }

func (c *failingCheckpointer) Commit(CellKey, []Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == 0 {
		return c.err
	}
	c.n--
	return nil
}

// TestRunCheckpointCommitErrorIsFatal pins the durability contract: a
// failing Commit aborts the run, because a cell that cannot be made
// durable would silently re-run on resume. The failure comes from a
// checkpointer that refuses its third commit, and from a real journal
// whose third append hits a full disk.
func TestRunCheckpointCommitErrorIsFatal(t *testing.T) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	p := testProtocol()
	sentinel := errors.New("disk full")
	p.Checkpoint = &failingCheckpointer{n: 2, err: sentinel}
	err = Run(context.Background(), p, factories, func(Record) {})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the checkpoint error", err)
	}

	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	rec.Fail(vfs.Fault{Kind: vfs.OpWrite, Path: "cells.jsonl", Skip: 2, Err: syscall.ENOSPC})
	j, err := OpenCellJournal(filepath.Join(t.TempDir(), "cells.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	p.Checkpoint = j
	if err := Run(context.Background(), p, factories, func(Record) {}); !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("err = %v, want the journal's ENOSPC", err)
	}
}

// TestCellJournalSurfacesFileFaults injects one file fault into each
// durable step of a journal — an append torn by a short write or a full
// disk, a failed per-commit fsync of the file or of its new directory
// entry under SyncEachCommit, the same four under a three-cell
// CommitBatch, and a failed fsync or close inside Close — and requires
// the step to return it with no cell of it done. A swallowed error would
// let a caller (the dist coordinator acking an upload, accurun exiting 0)
// report cells durable that are not.
func TestCellJournalSurfacesFileFaults(t *testing.T) {
	line := func(run int) CellLine {
		return CellLine{CellKey: CellKey{Run: run}, Records: []Record{{Policy: "a", Run: run, Result: &core.Result{Benefit: 1}}}}
	}
	commit := func(j *CellJournal) error { return j.Commit(CellKey{}, line(0).Records) }
	batch := func(j *CellJournal) error {
		committed, err := j.CommitBatch([]CellLine{line(0), line(1), line(2)})
		if err != nil && committed != nil {
			t.Errorf("failed CommitBatch reported %d line(s) committed", len(committed))
		}
		return err
	}
	var (
		shortWrite = vfs.Fault{Kind: vfs.OpWrite, Path: "cells.jsonl", Err: io.ErrShortWrite}
		enospc     = vfs.Fault{Kind: vfs.OpWrite, Path: "cells.jsonl", Err: syscall.ENOSPC}
		fsync      = vfs.Fault{Kind: vfs.OpSync, Path: "cells.jsonl", Err: syscall.EIO}
		dirFsync   = vfs.Fault{Kind: vfs.OpSyncDir, Err: syscall.EIO}
	)
	for name, tc := range map[string]struct {
		fault    vfs.Fault
		syncEach bool
		step     func(*CellJournal) error
	}{
		"commit short write": {fault: shortWrite, step: commit},
		"commit ENOSPC":      {fault: enospc, step: commit},
		"commit fsync":       {fault: fsync, syncEach: true, step: commit},
		"commit dir fsync":   {fault: dirFsync, syncEach: true, step: commit},
		"batch short write":  {fault: shortWrite, step: batch},
		"batch ENOSPC":       {fault: enospc, step: batch},
		"batch fsync":        {fault: fsync, syncEach: true, step: batch},
		"batch dir fsync":    {fault: dirFsync, syncEach: true, step: batch},
		"close fsync":        {fault: fsync, step: (*CellJournal).Close},
		"close":              {fault: vfs.Fault{Kind: vfs.OpClose, Path: "cells.jsonl", Err: syscall.EIO}, step: (*CellJournal).Close},
	} {
		t.Run(name, func(t *testing.T) {
			rec := &vfs.Recorder{}
			defer vfs.Swap(rec)()
			j, err := OpenCellJournal(filepath.Join(t.TempDir(), "cells.jsonl"), false)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if tc.syncEach {
				j.SyncEachCommit()
			}
			rec.Fail(tc.fault)
			if err := tc.step(j); !errors.Is(err, tc.fault.Err) {
				t.Fatalf("err = %v, want %v", err, tc.fault.Err)
			}
			for run := 0; run < 3; run++ {
				if j.Done(CellKey{Run: run}) {
					t.Errorf("cell (0,%d) counts as done after its commit failed", run)
				}
			}
		})
	}
}

// TestCellJournalFailsAfterFault pins that a failed append or fsync
// fails the journal for good, so a torn append cannot cost a cell acked
// after it. A short write leaves half a line at the end of the file; an
// append behind it would merge with it into one corrupt line that resume
// truncates together with every later cell. After either fault every
// commit (retries included) and Close must return the fault, and every
// cell that was acked must resume.
func TestCellJournalFailsAfterFault(t *testing.T) {
	for name, fault := range map[string]vfs.Fault{
		"torn append": {Kind: vfs.OpWrite, Path: "cells.jsonl", Skip: 1, Err: io.ErrShortWrite},
		"fsync":       {Kind: vfs.OpSync, Path: "cells.jsonl", Skip: 1, Err: syscall.EIO},
	} {
		t.Run(name, func(t *testing.T) {
			rec := &vfs.Recorder{}
			defer vfs.Swap(rec)()
			path := filepath.Join(t.TempDir(), "cells.jsonl")
			j, err := OpenCellJournal(path, false)
			if err != nil {
				t.Fatal(err)
			}
			j.SyncEachCommit()
			rec.Fail(fault) // the second commit's write or fsync
			var acked []CellKey
			for run := 0; run < 5; run++ {
				key := CellKey{Run: run}
				for attempt := 0; attempt < 2; attempt++ { // a failed commit is retried once
					err := j.Commit(key, []Record{{Policy: "a", Run: run, Result: &core.Result{Benefit: 1}}})
					if err == nil {
						acked = append(acked, key)
						break
					}
					if !errors.Is(err, fault.Err) {
						t.Fatalf("commit (0,%d): err = %v, want the first fault %v", run, err, fault.Err)
					}
				}
			}
			if len(acked) != 1 {
				t.Errorf("%d cells acked, want only the one before the fault", len(acked))
			}
			if err := j.Close(); !errors.Is(err, fault.Err) {
				t.Errorf("Close after the fault: err = %v, want %v", err, fault.Err)
			}

			r, err := OpenCellJournal(path, true)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for _, key := range acked {
				if !r.Done(key) {
					t.Errorf("acked cell (%d,%d) lost on resume (%d acked, %d resumed, %d dropped)",
						key.Network, key.Run, len(acked), r.Cells(), r.Dropped())
				}
			}
			if r.Dropped() != 0 {
				t.Errorf("Dropped() = %d, want 0: a torn line is a tail, not corruption", r.Dropped())
			}
		})
	}
}

// TestCellJournalBatchRepeatsKeyOnce: a batch that repeats a key, or
// holds one already done, writes each cell once — the first copy within
// the batch — and marks every fresh cell done.
func TestCellJournalBatchRepeatsKeyOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	a, b := CellKey{Run: 0}, CellKey{Run: 1}
	if err := j.Commit(a, []Record{{Policy: "first"}}); err != nil {
		t.Fatal(err)
	}
	batch := []CellLine{
		{CellKey: b, Records: []Record{{Policy: "first"}}},
		{CellKey: a, Records: []Record{{Policy: "second"}}},
		{CellKey: b, Records: []Record{{Policy: "second"}}},
	}
	committed, err := j.CommitBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, batch[:1]) {
		t.Errorf("CommitBatch reported %+v committed, want only the first line", committed)
	}
	if j.Cells() != 2 || !j.Done(b) {
		t.Errorf("Cells() = %d, Done(b) = %v; want 2, true", j.Cells(), j.Done(b))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(data, "\n"), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2:\n%s", len(lines), data)
	}
	for i, line := range lines {
		var cl CellLine
		if err := json.Unmarshal(line, &cl); err != nil || cl.Records[0].Policy != "first" {
			t.Errorf("line %d = %s, want the first copy of its cell", i, line)
		}
	}
}

// TestCellJournalCreateSyncsDir pins the order of a fresh journal's
// operations: its first fsync is followed by one of its directory, so
// the new entry survives power loss along with the cells the file
// fsyncs. Without the directory fsync, a coordinator could ack uploads
// into a file that vanishes.
func TestCellJournalCreateSyncsDir(t *testing.T) {
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := OpenCellJournal(filepath.Join(dir, "cells.jsonl"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rec.Log(), ", ")
	if want := "open cells.jsonl, sync cells.jsonl, syncdir state, close cells.jsonl"; got != want {
		t.Errorf("operations: %s\nwant        %s", got, want)
	}
}
