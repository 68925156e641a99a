package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/core"
)

// FuzzCellJournalReplay feeds arbitrary bytes to the journal loader's
// resume path. Whatever the on-disk state — torn tails, corrupt lines,
// binary garbage — resume must never panic, a journal that loads must
// replay exactly its loaded cells, and it must stay re-appendable: a
// fresh commit after recovery survives the next resume.
func FuzzCellJournalReplay(f *testing.F) {
	line := func(n, r int) []byte {
		b, err := json.Marshal(CellLine{
			CellKey: CellKey{Network: n, Run: r},
			Records: []Record{{Policy: "abm", Network: n, Run: r}},
		})
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	valid := append(line(0, 0), line(0, 1)...)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(valid, []byte(`{"network":1,"run"`)...)) // torn tail
	f.Add(append(append(line(0, 0), []byte("{corrupt}\n")...), line(2, 2)...))
	f.Add(append(line(0, 0), line(0, 0)...)) // duplicate cell
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "cells.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenCellJournal(path, true)
		if err != nil {
			return // refusing an unreadable journal is fine; panicking is not
		}
		cells := j.Cells()
		replayed := 0
		j.Replay(func(Record) { replayed++ })
		if cells == 0 && replayed != 0 {
			t.Fatalf("replayed %d records from a journal reporting 0 cells", replayed)
		}
		// The recovered journal must accept and retain a fresh commit.
		key := CellKey{Network: -7, Run: -13}
		added := 0
		if !j.Done(key) {
			if err := j.Commit(key, []Record{{Policy: "fuzz", Network: -7, Run: -13}}); err != nil {
				t.Fatalf("commit after recovery: %v", err)
			}
			added = 1
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close after recovery: %v", err)
		}
		j2, err := OpenCellJournal(path, true)
		if err != nil {
			t.Fatalf("journal not resumable after recovered append: %v", err)
		}
		defer j2.Close()
		if !j2.Done(key) {
			t.Fatal("cell committed after recovery vanished on resume")
		}
		if got := j2.Cells(); got != cells+added {
			t.Fatalf("resume after recovered append: got %d cells, want %d", got, cells+added)
		}
	})
}

// FuzzDecodeCellLine checks the journal decoder's fast path against
// encoding/json: whenever the fast path accepts a line, json.Unmarshal
// must accept it too and decode the same CellLine. The seeds are lines
// the engine journals, one request at a time and in batches of 2; they
// are kept short (one policy, four requests) because the fuzzer spends
// its time minimizing long inputs.
func FuzzDecodeCellLine(f *testing.F) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range []int{1, 2} {
		p := benchProtocol(1, 1, 1)
		p.K, p.BatchSize = 4, b
		var recs []Record
		if err := Run(context.Background(), p, factories[len(factories)-1:], func(r Record) { recs = append(recs, r) }); err != nil {
			f.Fatal(err)
		}
		line, err := json.Marshal(&CellLine{Records: recs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	f.Add([]byte(`{"network":0,"run":0,"records":null}`))
	// Near misses of encoding/json's grammar and of the Go types, which
	// the fast path must reject or decode as encoding/json does.
	for _, n := range []string{"01", "-", "-0", "+1", "1.", "1.5", "1e", "1e2", "9223372036854775807", "9223372036854775808", "-9223372036854775809", "12345678901234567890"} {
		f.Add([]byte(`{"network":` + n + `,"run":0,"records":null}`))
		f.Add([]byte(`{"network":0,"run":0,"records":[{"Policy":"a","Network":0,"Run":0,"Result":{"Policy":"a","Steps":null,"Benefit":` + n + `,"Friends":0,"CautiousFriends":0,"Journal":null}}]}`))
	}
	f.Add([]byte(`{"network":0,"run":0,"records":[{"Policy":"a\u0062","Network":0,"Run":0,"Result":null}]} `))
	f.Add([]byte(`{"network":-1,"run":2,"records":[{"Policy":"a","Network":0,"Run":0,"Result":{"Policy":"a","Steps":[],"Benefit":1e-7,"Friends":0,"CautiousFriends":0,"Journal":null}}]}`))
	f.Fuzz(func(t *testing.T, line []byte) {
		var d cellDecoder
		var got CellLine
		if !d.fast(line, &got) {
			return
		}
		var want CellLine
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatalf("fast path accepted a line encoding/json rejects (%v): %q", err, line)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fast path decoded %q as\n%+v\nencoding/json as\n%+v", line, got, want)
		}
		// reflect.DeepEqual holds -0 equal to 0; the bytes a journal
		// re-encodes do not.
		g, gerr := json.Marshal(&got)
		w, werr := json.Marshal(&want)
		if gerr != nil || werr != nil || !bytes.Equal(g, w) {
			t.Fatalf("fast path's value of %q re-encodes as\n%s (%v)\nencoding/json's as\n%s (%v)", line, g, gerr, w, werr)
		}
	})
}

// FuzzEncodeCellLine checks the cell-line encoder against encoding/json:
// for any line json.Unmarshal decodes into a CellLine, EncodeCellLine
// writes exactly json.Marshal's bytes plus a newline, both before and
// after a record carrying the float x and the string s is added; when x
// is NaN or ±Inf both must fail. The floats seed the edges of
// encoding/json's number format, the strings its escapes.
func FuzzEncodeCellLine(f *testing.F) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		f.Fatal(err)
	}
	p := benchProtocol(1, 1, 1)
	p.K, p.BatchSize = 4, 2
	var recs []Record
	if err := Run(context.Background(), p, factories[len(factories)-1:], func(r Record) { recs = append(recs, r) }); err != nil {
		f.Fatal(err)
	}
	line, err := json.Marshal(&CellLine{Records: recs})
	if err != nil {
		f.Fatal(err)
	}
	for _, x := range []float64{math.Copysign(0, -1), 1e-7, 1e15, 999999999999999, 1e21, 0.1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(line, x, "abm")
	}
	for _, s := range []string{"a<b", "a&b", "a\x01b", "a\u2028b", "a\xffb"} {
		f.Add(line, 1.0, s)
	}
	f.Add([]byte(`{"network":0,"run":0,"records":null}`), -1e-7, "")
	f.Add([]byte(`{"network":0,"run":0,"records":[{"Policy":"\u003c\u2029\t","Result":{"Benefit":-0,"Journal":{}}}]}`), 123456789.5, "x")
	f.Fuzz(func(t *testing.T, line []byte, x float64, s string) {
		var cl CellLine
		if json.Unmarshal(line, &cl) != nil {
			return
		}
		// A decoded line holds no NaN or Inf; the added record does
		// when x is one.
		check := func(cl *CellLine, unsupported bool) {
			got, gerr := EncodeCellLine(cl)
			want, werr := json.Marshal(cl)
			switch {
			case unsupported:
				if gerr == nil || werr == nil {
					t.Fatalf("x = %v: EncodeCellLine error %v, json.Marshal error %v; want both to fail", x, gerr, werr)
				}
			case gerr != nil || werr != nil:
				t.Fatalf("EncodeCellLine error %v, json.Marshal error %v", gerr, werr)
			case !bytes.Equal(got, append(want, '\n')):
				t.Fatalf("EncodeCellLine wrote\n%s\njson.Marshal writes\n%s", got, want)
			}
		}
		check(&cl, false)
		cl.Records = append(cl.Records, Record{Policy: s, Result: &core.Result{
			Policy: s, Steps: []core.Step{{Gain: x, BenefitAfter: -x}}, Benefit: x}})
		check(&cl, math.IsNaN(x) || math.IsInf(x, 0))
	})
}

// decodeCellLinesReference is the upload decoder the accudist coordinator
// used before it read uploads with the journal's decoder: a json.Decoder
// loop over concatenated JSON values, whatever whitespace separates them.
// It accepts a superset of ReadCellLines' one-value-per-line grammar, and
// is kept as that reader's oracle.
func decodeCellLinesReference(r io.Reader) ([]CellLine, error) {
	dec := json.NewDecoder(r)
	var lines []CellLine
	for {
		var cl CellLine
		if err := dec.Decode(&cl); err != nil {
			if errors.Is(err, io.EOF) {
				return lines, nil
			}
			return nil, err
		}
		lines = append(lines, cl)
	}
}

// FuzzReadCellLines checks the upload reader against
// decodeCellLinesReference: whatever ReadCellLines accepts, the reference
// decoder must accept too and decode to the same lines. It needs no disk,
// so it spends its budget on the decoder alone; FuzzUpload in
// internal/dist drives the same bodies through the coordinator. The seeds
// are the edges of the one-value-per-line grammar.
func FuzzReadCellLines(f *testing.F) {
	factories, err := DefaultFactories(core.DefaultWeights())
	if err != nil {
		f.Fatal(err)
	}
	p := benchProtocol(1, 2, 1)
	p.K = 4
	var batch []byte
	if err := Run(context.Background(), p, factories[len(factories)-1:], func(r Record) {
		line, err := EncodeCellLine(&CellLine{CellKey: CellKey{Network: r.Network, Run: r.Run}, Records: []Record{r}})
		if err != nil {
			f.Fatal(err)
		}
		batch = append(batch, line...)
	}); err != nil {
		f.Fatal(err)
	}
	valid := batch[:bytes.IndexByte(batch, '\n')+1]
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, valid, "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(append(slices.Clip(bytes.TrimSuffix(valid, []byte("\n"))), valid...)) // two values on one line
	f.Add(pretty.Bytes())                                                       // one value over several lines
	f.Add(bytes.ReplaceAll(batch, []byte("\n"), []byte("\r\n")))                // CRLF line endings
	f.Add([]byte("\n \t\n" + string(valid) + "\r\n\n"))                         // blank lines
	f.Add(bytes.TrimSuffix(batch, []byte("\n")))                                // last line without its newline
	f.Fuzz(func(t *testing.T, body []byte) {
		lines, err := ReadCellLines(bytes.NewReader(body))
		if err != nil {
			return
		}
		want, err := decodeCellLinesReference(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("ReadCellLines accepted %d line(s) the reference decoder rejects: %v", len(lines), err)
		}
		if !reflect.DeepEqual(lines, want) {
			t.Fatalf("ReadCellLines decoded %+v, the reference decoder %+v", lines, want)
		}
	})
}
