package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/gen"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// benchProtocol is a small but non-trivial grid: enough cells to exercise
// the queue, small enough for -benchtime to converge quickly.
func benchProtocol(networks, runs, workers int) Protocol {
	s := osn.DefaultSetup()
	s.NumCautious = 5
	return Protocol{
		Gen:      gen.ErdosRenyi{N: 300, M: 3000},
		Setup:    s,
		Networks: networks,
		Runs:     runs,
		K:        20,
		Seed:     rng.NewSeed(7, 11),
		Workers:  workers,
	}
}

// BenchmarkCellScheduler measures scheduler throughput on the two
// interesting grid shapes — single-network (which the old per-network
// fan-out serialized) and wide — across worker counts. The metric that
// matters is ns/op scaling down as workers go up, on both shapes.
func BenchmarkCellScheduler(b *testing.B) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct{ networks, runs int }{{1, 8}, {4, 2}} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("networks-%d/workers-%d", shape.networks, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				p := benchProtocol(shape.networks, shape.runs, workers)
				for i := 0; i < b.N; i++ {
					cells := 0
					if err := Run(context.Background(), p, factories, func(Record) { cells++ }); err != nil {
						b.Fatal(err)
					}
					if want := p.Networks * p.Runs * len(factories); cells != want {
						b.Fatalf("cells = %d, want %d", cells, want)
					}
				}
			})
		}
	}
}

// BenchmarkCellSchedulerAllocs isolates the per-cell allocation cost the
// worker-scratch pooling (core.Runner + Reusable policies) removes: one
// network instance, many cells, single worker so the numbers are stable.
func BenchmarkCellSchedulerAllocs(b *testing.B) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	p := benchProtocol(1, 16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Run(context.Background(), p, factories, func(Record) {}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCellJournalCommit measures the durable step of a cell: one op
// commits 16 cells of benchProtocol to a journal under a temporary
// directory. Under SyncEachCommit, the accudist coordinator's mode,
// sync-each commits them one by one (16 writes and fsyncs) and batch with
// one CommitBatch, which writes once and fsyncs once. default commits
// them one by one in the mode accurun, accubench and accuserv use: no
// fsync per commit, and the journal's one fsync at Close, outside the
// timed loop.
//
// Every rotateOps ops, with the timer stopped, the journal is closed and
// deleted and a fresh one opened. So one run holds at most rotateOps·16
// cells on disk and in the journal's done set, about 40 MB at ~155 KB an
// op, at any -benchtime.
func BenchmarkCellJournalCommit(b *testing.B) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	const cells, rotateOps = 16, 256
	recs := make([][]Record, cells)
	if err := Run(context.Background(), benchProtocol(1, cells, 1), factories, func(r Record) {
		recs[r.Run] = append(recs[r.Run], r)
	}); err != nil {
		b.Fatal(err)
	}
	for _, mode := range []string{"sync-each", "batch", "default"} {
		b.Run(mode, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "cells.jsonl")
			var j *CellJournal
			fresh := func() {
				if j != nil {
					if err := j.Close(); err != nil {
						b.Fatal(err)
					}
					if err := os.Remove(path); err != nil {
						b.Fatal(err)
					}
				}
				if j, err = OpenCellJournal(path, false); err != nil {
					b.Fatal(err)
				}
				if mode != "default" {
					j.SyncEachCommit()
				}
			}
			fresh()
			defer func() { j.Close() }()
			lines := make([]CellLine, cells)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%rotateOps == 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				for run := range lines {
					lines[run] = CellLine{CellKey: CellKey{Network: i, Run: run}, Records: recs[run]}
				}
				if mode == "batch" {
					_, err = j.CommitBatch(lines)
				} else {
					for _, cl := range lines {
						if err = j.Commit(cl.CellKey, cl.Records); err != nil {
							break
						}
					}
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}
