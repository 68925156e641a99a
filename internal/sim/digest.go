package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
)

// RecordDigest accumulates a canonical fingerprint of a Monte-Carlo
// record set. Because the engine delivers records in nondeterministic
// cell order, the digest is order-insensitive: each record is encoded
// to its canonical JSON line (the bytes json.Marshal writes) and the
// SHA-256 runs over the sorted lines. Two runs of the same protocol —
// uninterrupted, resumed from a checkpoint, or executed at different
// worker counts — therefore produce the same digest iff their record
// sets are bit-identical.
//
// Feed it as (or from) a collect callback, and on resume feed
// CellJournal.Replay through it first. Collect is safe for concurrent
// use, although the engine itself invokes collect serially.
type RecordDigest struct {
	mu    sync.Mutex
	lines []string
}

// NewRecordDigest returns an empty digest accumulator.
func NewRecordDigest() *RecordDigest { return &RecordDigest{} }

// digestBuffers recycles Collect's encoding buffers; only the finished
// line is copied into the digest.
var digestBuffers = sync.Pool{New: func() any { return new(cellEncoder) }}

// Collect folds one record into the digest.
func (d *RecordDigest) Collect(rec Record) {
	e := digestBuffers.Get().(*cellEncoder)
	e.b, e.err = e.b[:0], nil
	e.record(&rec)
	if e.err != nil {
		// Records the engine builds hold finite numbers; a failure here
		// is a programming error, not an input error.
		panic(fmt.Sprintf("sim: encode record for digest: %v", e.err))
	}
	line := string(e.b)
	digestBuffers.Put(e)
	d.mu.Lock()
	d.lines = append(d.lines, line)
	d.mu.Unlock()
}

// Count returns the number of records folded in so far.
func (d *RecordDigest) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.lines)
}

// Sum returns the hex SHA-256 of the sorted canonical record lines.
// It may be called repeatedly; later Collects extend the set.
func (d *RecordDigest) Sum() string {
	d.mu.Lock()
	lines := append([]string(nil), d.lines...)
	d.mu.Unlock()
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
