package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sync"
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
	// reaches stable storage at Sync/Close (or per commit under
	// SyncEvery); a distributed checkpointer may not ack until a remote
	// store has fsynced.
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
// Durability: Commit appends with a single write but does not fsync by
// default — a cell is only guaranteed to survive power loss after Sync
// or Close. Callers that ack commits to another party (the internal/dist
// coordinator acking a worker's upload, for example) must either enable
// SyncEvery or call Sync before acking, or an acked cell can vanish.
type CellJournal struct {
	// mu is held across every append, fsync and close: entries serialize,
	// and an fsync covers every append made before it.
	mu    sync.Mutex
	f     *os.File
	done  map[CellKey]bool
	lines []CellLine // cells loaded at resume, in journal order (for Replay)
	// syncEvery > 0 fsyncs after every syncEvery-th newly committed
	// cell; sinceSync counts commits since the last fsync.
	syncEvery int
	sinceSync int
	// dropped counts valid cells discarded by load's truncate-forward
	// corruption recovery (everything after the first corrupt line).
	dropped int
}

var _ Checkpointer = (*CellJournal)(nil)

// OpenCellJournal opens the journal at path. With resume=false the file
// must not already exist (guarding against accidentally mixing two
// experiments into one journal); with resume=true an existing journal is
// loaded — its completed cells answer Done and feed Replay — and a
// missing one is simply created.
func OpenCellJournal(path string, resume bool) (*CellJournal, error) {
	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_EXCL
	}
	f, err := os.OpenFile(path, flags, 0o644)
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

// load parses the journal's existing lines and positions the file for
// appending. Parsing stops at the first torn or corrupt line, which is
// truncated away together with everything after it — those cells simply
// re-run. Valid cells discarded behind a corrupt line are counted in
// Dropped so callers can surface the loss instead of silently paying the
// recomputation.
func (j *CellJournal) load() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return err
	}
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // torn trailing line
		}
		line := data[off : off+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			var cl CellLine
			if err := json.Unmarshal(line, &cl); err != nil {
				// Corrupt line: truncate it and everything after, but
				// count the valid cells the truncation throws away.
				j.dropped = countValidCells(data[off+nl+1:], j.done)
				break
			}
			if !j.done[cl.CellKey] {
				j.done[cl.CellKey] = true
				j.lines = append(j.lines, cl)
			}
		}
		off += nl + 1
	}
	if off < len(data) {
		if err := j.f.Truncate(int64(off)); err != nil {
			return fmt.Errorf("truncate torn tail: %w", err)
		}
	}
	_, err = j.f.Seek(int64(off), io.SeekStart)
	return err
}

// countValidCells counts the parseable, non-duplicate cells in the
// journal region behind the first corrupt line — the valid work the
// truncate-forward recovery is about to discard. A torn trailing line is
// not counted: it is the normal crash artifact, not lost work.
func countValidCells(data []byte, done map[CellKey]bool) int {
	dropped := 0
	seen := make(map[CellKey]bool)
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break
		}
		line := data[off : off+nl]
		if len(bytes.TrimSpace(line)) > 0 {
			var cl CellLine
			if err := json.Unmarshal(line, &cl); err == nil && !done[cl.CellKey] && !seen[cl.CellKey] {
				seen[cl.CellKey] = true
				dropped++
			}
		}
		off += nl + 1
	}
	return dropped
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

// SyncEvery makes Commit fsync after every n-th newly committed cell
// (n == 1 syncs every commit; n <= 0 restores the default of syncing
// only at Sync/Close). Use it on any journal whose commits are acked to
// another party — the internal/dist coordinator acks worker uploads only
// after the cells are on stable storage, so "first durable commit wins"
// is literal.
func (j *CellJournal) SyncEvery(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncEvery = n
}

// Done implements Checkpointer.
func (j *CellJournal) Done(key CellKey) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[key]
}

// Commit implements Checkpointer: the cell is appended as one JSONL line
// in a single write, fsynced per SyncEvery. The cell counts as done only
// once that write (and the fsync, if one is due) succeeded. Committed
// records are not retained in memory — only resumed cells are, for
// Replay.
func (j *CellJournal) Commit(key CellKey, recs []Record) error {
	line, err := json.Marshal(CellLine{CellKey: key, Records: recs})
	if err != nil {
		return fmt.Errorf("marshal cell: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[key] {
		return nil
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("append cell: %w", err)
	}
	j.sinceSync++
	if j.syncEvery > 0 && j.sinceSync >= j.syncEvery {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("sync cell: %w", err)
		}
		j.sinceSync = 0
	}
	// Only now is the cell committed: after a failed write or fsync it
	// stays undone, so a retried Commit writes (and syncs) it again. The
	// line a failed fsync left behind is harmless: load keeps the first
	// copy of a cell.
	j.done[key] = true
	return nil
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
func (j *CellJournal) Replay(collect func(Record)) {
	j.mu.Lock()
	lines := j.lines
	j.mu.Unlock()
	for _, cl := range lines {
		for _, rec := range cl.Records {
			collect(rec)
		}
	}
}

// Sync flushes the journal to stable storage (fsync).
func (j *CellJournal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sinceSync = 0
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *CellJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
