package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// checkFastDecode requires the fast path to accept line and to decode
// it exactly as json.Unmarshal does. reflect.DeepEqual holds -0 equal to
// 0, so the two values must also re-encode to the same bytes.
func checkFastDecode(t *testing.T, line []byte) {
	t.Helper()
	var want sim.CellLine
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("json.Unmarshal: %v\n%s", err, line)
	}
	got, ok := sim.DecodeCellLineFast(line)
	if !ok {
		t.Fatalf("fast path fell back on an engine-written line:\n%s", line)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path decoded\n%+v\nencoding/json decoded\n%+v", got, want)
	}
	if g, w := marshal(t, &got), marshal(t, &want); !bytes.Equal(g, w) {
		t.Fatalf("fast path's value re-encodes as\n%s\nencoding/json's as\n%s", g, w)
	}
}

// checkEncode requires EncodeCellLine to write exactly json.Marshal's
// bytes for cl, plus the newline.
func checkEncode(t *testing.T, cl *sim.CellLine) {
	t.Helper()
	got, err := sim.EncodeCellLine(cl)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(marshal(t, cl), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("EncodeCellLine wrote\n%s\njson.Marshal writes\n%s", got, want)
	}
}

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// journalGrid journals a small grid of preset — every policy, two runs,
// batches of b requests — and returns the journal's lines (without their
// newlines) and the records the grid delivered.
func journalGrid(t *testing.T, preset string, b int) (lines [][]byte, recs []sim.Record) {
	t.Helper()
	policies := []serv.PolicySpec{{Name: "abm"}, {Name: "greedy"}, {Name: "maxdegree"}, {Name: "pagerank"}, {Name: "random"}}
	cautious := 5
	spec := serv.Spec{Preset: preset, Scale: 0.02, Cautious: &cautious, Policies: policies,
		Networks: 1, Runs: 2, K: 12, BatchSize: b, Seed: 11}
	if preset == "facebook" {
		spec.Scale = 0.25 // 0.02 leaves too few cautious-user candidates
	}
	p, factories, err := spec.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	j, err := sim.OpenCellJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	p.Checkpoint = j
	if err := sim.Run(context.Background(), p, factories, func(r sim.Record) { recs = append(recs, r) }); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines = bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != p.Networks*p.Runs {
		t.Fatalf("journal has %d lines, want %d", len(lines), p.Networks*p.Runs)
	}
	return lines, recs
}

// forEachGrid runs test on the journal of every preset at b = 1 and b = 4
// (BatchSizes non-nil).
func forEachGrid(t *testing.T, test func(t *testing.T, b int, lines [][]byte, recs []sim.Record)) {
	for _, preset := range []string{"facebook", "slashdot", "twitter", "dblp"} {
		for _, b := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/b%d", preset, b), func(t *testing.T) {
				lines, recs := journalGrid(t, preset, b)
				test(t, b, lines, recs)
			})
		}
	}
}

// TestCellLineDecoderMatchesEncodingJSON is the decoder's oracle: every
// line the engine journals — all four presets, every policy, one request
// at a time and in batches of 4 (BatchSizes non-nil) — decodes on the
// fast path, to exactly what json.Unmarshal gives.
func TestCellLineDecoderMatchesEncodingJSON(t *testing.T) {
	forEachGrid(t, func(t *testing.T, b int, lines [][]byte, _ []sim.Record) {
		for _, line := range lines {
			checkFastDecode(t, line)
			if cl, _ := sim.DecodeCellLineFast(line); b > 1 && cl.Records[0].Result.Journal.BatchSizes == nil {
				t.Fatal("a batched attack journaled no BatchSizes")
			}
		}
	})
}

// TestCellLineEncoderMatchesEncodingJSON is the encoder's oracle, the
// twin of the decoder's: on the same grids, every journal line (written
// by EncodeCellLine) is json.Marshal of its cell, and RecordDigest sums
// to the digest of each record's json.Marshal line. A field added to a
// wire struct without a matching line in the encoder fails here.
func TestCellLineEncoderMatchesEncodingJSON(t *testing.T) {
	forEachGrid(t, func(t *testing.T, _ int, lines [][]byte, recs []sim.Record) {
		for _, line := range lines {
			var cl sim.CellLine
			if err := json.Unmarshal(line, &cl); err != nil {
				t.Fatal(err)
			}
			if want := marshal(t, &cl); !bytes.Equal(line, want) {
				t.Fatalf("journal line\n%s\njson.Marshal of its cell\n%s", line, want)
			}
			checkEncode(t, &cl)
		}
		// Collect is safe for concurrent use (the accudist coordinator
		// folds uploads from several handlers), so fold from several
		// goroutines at once.
		d := sim.NewRecordDigest()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < len(recs); i += 4 {
					d.Collect(recs[i])
				}
			}()
		}
		wg.Wait()
		var want []string
		for _, r := range recs {
			want = append(want, string(marshal(t, r)))
		}
		sort.Strings(want)
		h := sha256.New()
		for _, l := range want {
			h.Write([]byte(l + "\n"))
		}
		if got, want := d.Sum(), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("RecordDigest %s, digest of json.Marshal lines %s", got, want)
		}
	})
}

// TestCellLineDecoderEdgeShapes covers the shapes a grid rarely writes:
// null and empty record lists, a null Result, a null Journal, empty
// Steps and user lists, negative and extreme numbers. EncodeCellLine must
// write each line as json.Marshal does, and the fast path must accept it
// and agree with json.Unmarshal.
func TestCellLineDecoderEdgeShapes(t *testing.T) {
	for name, cl := range map[string]sim.CellLine{
		"null records":  {CellKey: sim.CellKey{Network: 1, Run: 2}},
		"empty records": {Records: []sim.Record{}},
		"null result":   {Records: []sim.Record{{Policy: "abm"}}},
		"null journal and empty steps": {Records: []sim.Record{{Policy: "abm", Result: &core.Result{
			Policy: "abm", Steps: []core.Step{}}}}},
		"empty users": {Records: []sim.Record{{Policy: "random", Result: &core.Result{
			Journal: &osn.Journal{Users: []int{}, BatchSizes: []int{}}}}}},
		"extreme numbers": {CellKey: sim.CellKey{Network: -3, Run: math.MaxInt64}, Records: []sim.Record{
			{Policy: "x", Network: math.MinInt64, Run: math.MinInt64 + 1, Result: &core.Result{
				Steps: []core.Step{
					{User: -1, Gain: math.SmallestNonzeroFloat64, BenefitAfter: math.MaxFloat64},
					{Gain: 1e-7, BenefitAfter: 1e21, Accepted: true, Cautious: true, CautiousFriendsAfter: 999999999999999999},
					{Gain: math.Copysign(0, -1), BenefitAfter: -123.456},
					{Gain: 1e15, BenefitAfter: 999999999999999},
					{Gain: -999999999999999, BenefitAfter: 1e-6},
				},
				Benefit: 0.1, Friends: 2, CautiousFriends: 1,
				Journal: &osn.Journal{Users: []int{0, -1, 7}, BatchSizes: []int{2, 1}}}},
			{Policy: "x"},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			checkEncode(t, &cl)
			checkFastDecode(t, marshal(t, &cl))
		})
	}
}
