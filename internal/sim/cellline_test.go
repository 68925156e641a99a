package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// checkFastDecode requires the fast path to accept line and to decode
// it exactly as json.Unmarshal does.
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
}

// TestCellLineDecoderMatchesEncodingJSON is the decoder's oracle: every
// line the engine journals — all four presets, every policy, one request
// at a time and in batches of 4 (BatchSizes non-nil) — decodes on the
// fast path, to exactly what json.Unmarshal gives.
func TestCellLineDecoderMatchesEncodingJSON(t *testing.T) {
	policies := []serv.PolicySpec{{Name: "abm"}, {Name: "greedy"}, {Name: "maxdegree"}, {Name: "pagerank"}, {Name: "random"}}
	for _, preset := range []string{"facebook", "slashdot", "twitter", "dblp"} {
		for _, b := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/b%d", preset, b), func(t *testing.T) {
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
				if err := sim.Run(context.Background(), p, factories, func(sim.Record) {}); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
				if len(lines) != p.Networks*p.Runs {
					t.Fatalf("journal has %d lines, want %d", len(lines), p.Networks*p.Runs)
				}
				for _, line := range lines {
					checkFastDecode(t, line)
					if cl, _ := sim.DecodeCellLineFast(line); b > 1 && cl.Records[0].Result.Journal.BatchSizes == nil {
						t.Fatal("a batched attack journaled no BatchSizes")
					}
				}
			})
		}
	}
}

// TestCellLineDecoderEdgeShapes covers the shapes a grid rarely writes:
// null and empty record lists, a null Result, a null Journal, empty
// Steps and user lists, negative and extreme numbers. The fast path must
// accept each line json.Marshal writes and agree with json.Unmarshal.
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
				},
				Benefit: 0.1, Friends: 2, CautiousFriends: 1,
				Journal: &osn.Journal{Users: []int{0, -1, 7}, BatchSizes: []int{2, 1}}}},
			{Policy: "x"},
		}},
	} {
		t.Run(name, func(t *testing.T) {
			line, err := json.Marshal(&cl)
			if err != nil {
				t.Fatal(err)
			}
			checkFastDecode(t, line)
		})
	}
}
