package sim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"
	"sync"

	"github.com/accu-sim/accu/internal/vfs"
)

// CellKey identifies one (network, run) cell of the Monte-Carlo grid.
//
//accu:wire
type CellKey struct {
	Network int `json:"network"`
	Run     int `json:"run"`
}

// Checkpointer persists completed cells so an interrupted grid can
// resume without recomputation. The engine consults Done once per cell
// before scheduling and calls Commit after a cell's records have been
// delivered; Commit is invoked concurrently from worker goroutines, so
// implementations must serialize internally. A Commit error aborts the
// run like a failed cell — records that cannot be made durable would
// silently re-run on resume.
type Checkpointer interface {
	// Done reports whether the cell is already recorded.
	Done(key CellKey) bool
	// Commit records one completed cell with its records. Each
	// implementation defines its own durability point: CellJournal
	// reaches stable storage at Close, or at every commit under
	// SyncEachCommit; the internal/dist worker's checkpointer buffers
	// cells and counts them only once the coordinator has fsynced their
	// batch (one fsync per accepted batch).
	Commit(key CellKey, recs []Record) error
}

// CellLine is one cell-journal line: a completed cell with its records.
// It is the wire format shared by CellJournal's on-disk JSONL and the
// internal/dist cell-upload stream, so a journal file and a worker
// upload body are interchangeable line for line.
//
//accu:wire
type CellLine struct {
	CellKey
	Records []Record `json:"records"`
}

// CellJournal is the append-only JSONL Checkpointer: one line per
// completed cell, written in full before the cell is considered
// committed. A torn trailing line (crash mid-append) is truncated away
// on resume, so the journal is always re-appendable. Because every cell
// reseeds from its (network, run) coordinates alone, the union of a
// journal's replayed records and a resumed Run's records is
// bit-identical to an uninterrupted run at any worker count.
//
// Durability has two modes. By default a commit appends with a single
// write and Close fsyncs once: a cell survives power loss only after
// Close returned nil, which suits every grid run (RunJournaled). A
// journal whose commits are acked to another party — the internal/dist
// coordinator acking an upload — turns on SyncEachCommit, so a commit
// returns only once its cells are on stable storage.
//
// A failed write or fsync fails the journal: the file may end in a torn
// line, and an append behind it would merge with it into one corrupt
// line that load truncates together with every cell after it. So every
// later Commit, CommitBatch and Close returns that first error and marks
// nothing done; reopening with resume truncates the torn tail.
type CellJournal struct {
	// mu is held across every append, fsync and close: entries serialize,
	// and an fsync covers every append made before it.
	mu    sync.Mutex
	f     vfs.File
	done  map[CellKey]bool
	lines []CellLine // cells loaded at resume, in journal order, until Replay hands them over
	// syncEach fsyncs every commit that wrote a cell (SyncEachCommit).
	syncEach bool
	// dropped counts valid cells discarded by load's truncate-forward
	// corruption recovery (everything after the first corrupt line).
	dropped int
	// err is the first failed write or fsync; once set, the journal
	// accepts nothing more.
	err error
}

var _ Checkpointer = (*CellJournal)(nil)

// OpenCellJournal opens the journal at path. With resume=false the file
// must not already exist (guarding against accidentally mixing two
// experiments into one journal); with resume=true an existing journal is
// loaded — its completed cells answer Done and feed Replay — and a
// missing one is simply created. The journal reaches the disk through
// internal/vfs, so its first fsync also fsyncs the directory.
func OpenCellJournal(path string, resume bool) (*CellJournal, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_EXCL
	}
	f, err := vfs.OpenFile(path, flags, 0o644)
	if err != nil {
		if !resume && errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("sim: checkpoint %s already exists; resume it or remove it: %w", path, err)
		}
		return nil, fmt.Errorf("sim: open checkpoint: %w", err)
	}
	j := &CellJournal{f: f, done: make(map[CellKey]bool)}
	if resume {
		if err := j.load(); err != nil {
			f.Close()
			return nil, fmt.Errorf("sim: load checkpoint %s: %w", path, err)
		}
	}
	return j, nil
}

// ResumeJournal opens the journal at path like OpenCellJournal, logs
// through logf how many completed cells it resumes and how many valid
// cells a corrupt line discarded (they re-run), then replays the loaded
// records into collect; the journal keeps no copy of them (see Replay).
// Every journal that resumes a grid opens this way (RunJournaled, the
// internal/dist coordinator), so a resumed grid aggregates the same
// record set whichever program runs it.
func ResumeJournal(path string, resume bool, collect func(Record), logf func(format string, args ...any)) (*CellJournal, error) {
	j, err := OpenCellJournal(path, resume)
	if err != nil {
		return nil, err
	}
	if n := j.Cells(); n > 0 {
		logf("resuming %d completed cell(s) from %s", n, path)
	}
	if d := j.Dropped(); d > 0 {
		logf("warning: %s: corrupt journal line discarded %d valid completed cell(s) after it; they will re-run", path, d)
	}
	j.Replay(collect)
	return j, nil
}

// RunJournaled runs p like Run, journaled at path: it opens the journal
// through ResumeJournal, which replays a resumed journal's records into
// collect, calls replayed (if non-nil), runs with the journal as p's
// Checkpoint, and closes it. A run error wins over a close error; an
// empty path runs p unjournaled. Every entry point that checkpoints a
// grid runs it this way.
func RunJournaled(ctx context.Context, p Protocol, factories []PolicyFactory, path string, resume bool, collect func(Record), replayed func(), logf func(format string, args ...any)) error {
	if path == "" {
		return Run(ctx, p, factories, collect)
	}
	j, err := ResumeJournal(path, resume, collect, logf)
	if err != nil {
		return err
	}
	if replayed != nil {
		replayed()
	}
	p.Checkpoint = j
	err = Run(ctx, p, factories, collect)
	if cerr := j.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("sim: close checkpoint journal %s: %w", path, cerr)
	}
	return err
}

// load streams the journal's existing lines and positions the file for
// appending. Parsing keeps nothing from the first torn or corrupt line
// on: it is truncated away together with everything after it, and those
// cells simply re-run. The valid, distinct cells behind a corrupt line
// are counted in Dropped so callers can surface the loss instead of
// silently paying the recomputation; a torn trailing line is the normal
// crash artifact, not lost work, and is not counted.
func (j *CellJournal) load() error {
	lr := newLineReader(j.f)
	var dec cellDecoder
	var off int64 // end of the last line kept
	corrupt := false
	dropped := make(map[CellKey]bool)
	for {
		line, err := lr.next()
		if err == io.EOF {
			break // end of the journal, or a torn trailing line
		}
		if err != nil {
			return err
		}
		if !blank(line) {
			switch cl, err := dec.decode(line); {
			case err != nil:
				corrupt = true
			case corrupt:
				if !j.done[cl.CellKey] {
					dropped[cl.CellKey] = true
				}
			case !j.done[cl.CellKey]:
				j.done[cl.CellKey] = true
				j.lines = append(j.lines, cl)
			}
		}
		if !corrupt {
			off += int64(len(line)) + 1
		}
	}
	j.dropped = len(dropped)
	if off < lr.n {
		if err := j.f.Truncate(off); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	_, err := j.f.Seek(off, io.SeekStart)
	return err
}

// Dropped returns the number of valid cells load discarded behind the
// first corrupt line (0 on a clean journal). Those cells re-run on
// resume; callers should surface the count so a corrupted journal never
// silently costs recomputation.
func (j *CellJournal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// SyncEachCommit makes every later Commit and CommitBatch that writes a
// cell fsync before it returns, instead of leaving the one fsync to
// Close. Use it on any journal whose commits are acked to another party
// — the internal/dist coordinator acks worker uploads only after the
// cells are on stable storage, so "first durable commit wins" is
// literal.
func (j *CellJournal) SyncEachCommit() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncEach = true
}

// Done implements Checkpointer.
func (j *CellJournal) Done(key CellKey) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[key]
}

// Commit implements Checkpointer as a batch of one (see CommitBatch).
// Committed records are not retained in memory — only resumed cells
// are, until Replay hands them over.
func (j *CellJournal) Commit(key CellKey, recs []Record) error {
	_, err := j.CommitBatch([]CellLine{{CellKey: key, Records: recs}})
	return err
}

// CommitBatch appends every line whose cell is not yet done, keeping the
// first of a key's repeats within lines, as JSONL in a single write,
// then fsyncs once under SyncEachCommit. It returns the lines it
// appended, in order. The cells count as done only after that write
// (and the fsync) succeeded; on any error none of them does, and the
// journal is failed (see CellJournal).
func (j *CellJournal) CommitBatch(lines []CellLine) ([]CellLine, error) {
	encoded := make([][]byte, len(lines)) // encoded outside the lock
	size := 0
	for i := range lines {
		b, err := EncodeCellLine(&lines[i])
		if err != nil {
			return nil, err
		}
		encoded[i] = b
		size += len(b)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	var fresh []CellLine
	var out []byte
	inBatch := make(map[CellKey]bool, len(lines))
	for i, cl := range lines {
		if j.done[cl.CellKey] || inBatch[cl.CellKey] {
			continue
		}
		inBatch[cl.CellKey] = true
		fresh = append(fresh, cl)
		if out == nil {
			// Grow the first line's own buffer once to hold the batch,
			// so a lone line is written without a copy.
			out = slices.Grow(encoded[i], size-len(encoded[i]))
		} else {
			out = append(out, encoded[i]...)
		}
	}
	if len(fresh) == 0 {
		return nil, nil
	}
	if _, err := j.f.Write(out); err != nil {
		j.err = fmt.Errorf("append %d cell(s): %w", len(fresh), err)
		return nil, j.err
	}
	if j.syncEach {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("sync %d cell(s): %w", len(fresh), err)
			return nil, j.err
		}
	}
	// Only now are the cells committed.
	for _, cl := range fresh {
		j.done[cl.CellKey] = true
	}
	return fresh, nil
}

// Cells returns the number of completed cells the journal holds (loaded
// plus committed this session).
func (j *CellJournal) Cells() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Replay feeds every record loaded at resume to collect, in journal
// (append) order. Call it before Run when resuming so aggregation sees
// the already-completed cells; Run itself never re-delivers checkpointed
// records. Cells committed after opening are not replayed — the caller's
// collect already saw them live.
//
// Replay hands the loaded cells over once: the journal drops them, so
// their memory is freed once collect lets go of the records, and a
// second Replay feeds nothing. Done and Cells still count them.
func (j *CellJournal) Replay(collect func(Record)) {
	j.mu.Lock()
	lines := j.lines
	j.lines = nil
	j.mu.Unlock()
	for _, cl := range lines {
		for _, rec := range cl.Records {
			collect(rec)
		}
	}
}

// Close fsyncs and closes the journal file. It returns the journal's
// first failed write or fsync, if any, before a failure of its own.
func (j *CellJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err == nil {
		if err := j.f.Sync(); err != nil {
			j.err = fmt.Errorf("sync: %w", err)
		}
	}
	if err := j.f.Close(); err != nil && j.err == nil {
		return err
	}
	return j.err
}
