package dist

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// BenchmarkDistUpload measures one loopback upload round trip through
// the worker's checkpointer: marshal n cells, post them as one JSONL
// body, and wait for the coordinator to validate them, commit them with
// one fsync and ack. The cells are copies of one cell of bench/'s
// durable-dist grid (slashdot x0.02, random + maxdegree, K = 200) under
// fresh keys, so every upload is accepted and fsynced.
func BenchmarkDistUpload(b *testing.B) {
	cautious := 10
	spec := serv.Spec{
		Preset:   "slashdot",
		Scale:    0.02,
		Cautious: &cautious,
		Policies: []serv.PolicySpec{{Name: "random"}, {Name: "maxdegree"}},
		Networks: 1,
		Runs:     1,
		K:        200,
		Seed:     11,
		Workers:  1,
	}
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		b.Fatal(err)
	}
	var recs []sim.Record
	if err := sim.Run(context.Background(), protocol, factories, func(r sim.Record) { recs = append(recs, r) }); err != nil {
		b.Fatal(err)
	}
	spec.Runs = 4096 // keys per coordinator; a fresh one takes over when they run out

	for _, n := range []int{1, uploadBatch} {
		b.Run(fmt.Sprintf("cells-%d", n), func(b *testing.B) {
			var (
				coord *Coordinator
				srv   *httptest.Server
				rc    *rangeCheckpointer
				next  = spec.Runs // next free run; spec.Runs forces a fresh coordinator
			)
			stop := func() {
				if srv != nil {
					srv.Close()
					coord.Close()
				}
			}
			defer stop()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if next+n > spec.Runs {
					b.StopTimer()
					stop()
					coord, err = New(Config{Spec: spec, Dir: b.TempDir(), LeaseTTL: time.Hour})
					if err != nil {
						b.Fatal(err)
					}
					srv = httptest.NewServer(coord.Handler())
					rc = &rangeCheckpointer{
						w:     &Worker{Coordinator: srv.URL, ID: "bench"},
						ctx:   context.Background(),
						lease: &Lease{ID: "bench", End: spec.Runs},
						runs:  spec.Runs,
						last:  time.Now(),
					}
					next = 0
					b.StartTimer()
				}
				for c := 0; c < n; c++ {
					key := sim.CellKey{Run: next}
					next++
					for k := range recs {
						recs[k].Run = key.Run
					}
					if err := rc.Commit(key, recs); err != nil {
						b.Fatal(err)
					}
				}
				if err := rc.flush(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
