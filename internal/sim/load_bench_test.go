package sim_test

import (
	"context"
	"path/filepath"
	"testing"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// resumeLocalSpec is a one-network grid of bench/'s resume-local shape:
// slashdot ×0.02, random, k = 100, one ~10.6 KB journal line a cell.
func resumeLocalSpec(runs int) serv.Spec {
	return serv.Spec{
		Preset:   "slashdot",
		Scale:    0.02,
		Policies: []serv.PolicySpec{{Name: "random"}},
		Networks: 1,
		Runs:     runs,
		K:        100,
		Seed:     11,
	}
}

// BenchmarkCellJournalLoad measures what a resume pays for its journal:
// one op opens a 128-cell journal of bench/'s resume-local shape
// (slashdot ×0.02, random, k = 100, ~10.6 KB a line) with resume, which
// reads and decodes every line, and replays its records. Closing the
// journal (an fsync) is outside the timer.
func BenchmarkCellJournalLoad(b *testing.B) {
	const cells = 128
	protocol, factories, err := resumeLocalSpec(cells).Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "cells.jsonl")
	j, err := sim.OpenCellJournal(path, false)
	if err != nil {
		b.Fatal(err)
	}
	protocol.Checkpoint = j
	if err := sim.Run(context.Background(), protocol, factories, func(sim.Record) {}); err != nil {
		b.Fatal(err)
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := sim.OpenCellJournal(path, true)
		if err != nil {
			b.Fatal(err)
		}
		replayed := 0
		j.Replay(func(sim.Record) { replayed++ })
		b.StopTimer()
		if replayed != cells {
			b.Fatalf("replayed %d records, want %d", replayed, cells)
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}

// BenchmarkRecordDigest measures the digest half of record collection:
// one op folds 128 records of bench/'s resume-local shape into a fresh
// RecordDigest with Collect, which encodes each record to its canonical
// JSON line (json.Marshal's bytes, written without reflection), and takes
// the Sum, which sorts the lines and hashes them.
func BenchmarkRecordDigest(b *testing.B) {
	const records = 128
	protocol, factories, err := resumeLocalSpec(records).Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	var recs []sim.Record
	if err := sim.Run(context.Background(), protocol, factories, func(r sim.Record) { recs = append(recs, r) }); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := sim.NewRecordDigest()
		for _, r := range recs {
			d.Collect(r)
		}
		if d.Sum() == "" || d.Count() != records {
			b.Fatalf("digest of %d records", d.Count())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
