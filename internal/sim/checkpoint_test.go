package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/obs"
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

// TestCellJournalSyncEvery exercises the sync-on-commit path: with
// SyncEvery(1) every commit fsyncs (observable only as "still correct"),
// duplicates do not reset the cadence, and the journal round-trips.
func TestCellJournalSyncEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	j.SyncEvery(1)
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
// which accepts the write and fails Sync (EINVAL). Under SyncEvery(1) the
// failed Commit must leave the cell undone and uncounted, and a retry must
// try again and fail again rather than return nil as a duplicate; an
// accudist coordinator would otherwise ack the retried upload without
// ever making its records durable.
func TestCellJournalFailedSyncLeavesCellUndone(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	j := &CellJournal{f: w, done: make(map[CellKey]bool)}
	defer j.Close()
	j.SyncEvery(1)
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
		pp.Checkpoint = j
		ctx, cancel := context.WithCancel(context.Background())
		killed := 0
		err = Run(ctx, pp, factories, func(Record) {
			killed++
			if killed == 9 { // mid-grid, mid-cell
				cancel()
			}
		})
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
// durable would silently re-run on resume.
func TestRunCheckpointCommitErrorIsFatal(t *testing.T) {
	p := testProtocol()
	sentinel := errors.New("disk full")
	p.Checkpoint = &failingCheckpointer{n: 2, err: sentinel}
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	err = Run(context.Background(), p, factories, func(Record) {})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want the checkpoint error", err)
	}
}
