package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"
)

// checkRound returns every way rd's output is wrong: a record count or
// failed-cell count off the grid, a digest that differs from the first
// round of the same grid or from the pinned expectation, and a journal
// whose cells are missing, duplicated or differ from an in-process
// recomputation of a sample of them.
func (r *runner) checkRound(rd, first *round, roundIdx int) []string {
	var bad []string
	if want := r.grid.records(); rd.Records != want {
		bad = append(bad, fmt.Sprintf("%d records, want %d", rd.Records, want))
	}
	if rd.FailedCells != 0 {
		bad = append(bad, fmt.Sprintf("%d failed cells", rd.FailedCells))
	}
	if first != nil && rd.Digest != first.Digest {
		bad = append(bad, fmt.Sprintf("digest %s differs from the first round's %s", rd.Digest, first.Digest))
	}
	bad = append(bad, r.checkExpected(rd.Records, rd.Digest)...)
	if err := r.checkJournal(rd.journal, roundIdx); err != nil {
		bad = append(bad, err.Error())
	}
	return bad
}

// checkExpected compares a result with bench/expected.json when the seed
// is the one it pins.
func (r *runner) checkExpected(records int, digest string) []string {
	if r.grid.Seed != defaultSeed {
		return nil
	}
	exp, ok := r.cfg.expected[r.cfg.wl.name]
	if !ok {
		fmt.Fprintf(r.cfg.log, "note: bench/expected.json pins no result for %s; got %d records, digest %s\n",
			r.cfg.wl.name, records, digest)
		return nil
	}
	if records != exp.Records || digest != exp.Digest {
		return []string{fmt.Sprintf("got %d records with digest %s, bench/expected.json pins %d records with digest %s",
			records, digest, exp.Records, exp.Digest)}
	}
	return nil
}

// samplesPerRound is how many journal cells each round recomputes.
const samplesPerRound = 2

// checkJournal requires the journal to hold every cell of the grid once
// and the records of a seeded sample of cells to equal, byte for byte,
// what the in-process replica computes for them.
func (r *runner) checkJournal(path string, roundIdx int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	g := r.grid
	lines := make(map[int][]byte, g.cells())
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return fmt.Errorf("journal ends in a torn line")
		}
		line := data[:nl]
		data = data[nl+1:]
		i, j, ok := cellKey(line)
		if !ok || i < 0 || i >= g.Networks || j < 0 || j >= g.Runs {
			return fmt.Errorf("journal line with bad cell key: %.60s", line)
		}
		c := i*g.Runs + j
		if lines[c] != nil {
			return fmt.Errorf("journal holds cell (%d,%d) twice", i, j)
		}
		lines[c] = line
	}
	if len(lines) != g.cells() {
		return fmt.Errorf("journal holds %d cells, want %d", len(lines), g.cells())
	}
	rng := rand.New(rand.NewSource(int64(g.Seed)*1000003 + int64(roundIdx)))
	rep, err := newReplica(g, newTracer())
	if err != nil {
		return err
	}
	for s := 0; s < samplesPerRound; s++ {
		lo, hi := 0, g.cells()
		if r.cfg.wl.entry == entryLocal { // one resumed cell, one fresh one
			if s == 0 {
				hi = r.cfg.wl.prefill
			} else {
				lo = r.cfg.wl.prefill
			}
		}
		c := lo + rng.Intn(hi-lo)
		if err := checkCell(rep, lines[c], c/g.Runs, c%g.Runs); err != nil {
			return err
		}
	}
	return nil
}

// checkCell recomputes cell (i, j) and compares it with its journal line.
func checkCell(rep *replica, line []byte, i, j int) error {
	var cl struct {
		Records []json.RawMessage `json:"records"`
	}
	if err := json.Unmarshal(line, &cl); err != nil {
		return fmt.Errorf("journal cell (%d,%d): %w", i, j, err)
	}
	recs, err := rep.cell(i, j)
	if err != nil {
		return fmt.Errorf("recompute cell (%d,%d): %w", i, j, err)
	}
	if len(recs) != len(cl.Records) {
		return fmt.Errorf("journal cell (%d,%d) has %d records, recomputed %d", i, j, len(cl.Records), len(recs))
	}
	for k, rec := range recs {
		want, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, cl.Records[k]) {
			return fmt.Errorf("journal cell (%d,%d) policy %s differs from its in-process recomputation", i, j, rec.Policy)
		}
	}
	return nil
}

// cellKey parses the {"network":N,"run":R, prefix every journal line
// starts with.
func cellKey(line []byte) (network, run int, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(`{"network":`))
	if !ok {
		return 0, 0, false
	}
	network, rest, ok = leadingInt(rest)
	if !ok {
		return 0, 0, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"run":`)); !ok {
		return 0, 0, false
	}
	run, _, ok = leadingInt(rest)
	return network, run, ok
}

func leadingInt(b []byte) (int, []byte, bool) {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	v, err := strconv.Atoi(string(b[:n]))
	return v, b[n:], err == nil
}
