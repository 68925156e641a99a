package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/accu-sim/accu/internal/sim"
)

// FuzzUpload feeds arbitrary cell-upload bodies through the coordinator's
// decoder and Upload, then resumes the journal they left behind. Neither
// step may panic, and the resumed journal never holds more cells than the
// grid has.
func FuzzUpload(f *testing.F) {
	spec := testSpec()
	// A real journal line: cell (0,0) of the same roster at a small K.
	small := spec
	small.Networks, small.Runs, small.K = 1, 1, 2
	protocol, factories, err := small.Build(nil)
	if err != nil {
		f.Fatal(err)
	}
	line := sim.CellLine{}
	if err := sim.Run(context.Background(), protocol, factories, func(rec sim.Record) {
		line.Records = append(line.Records, rec)
	}); err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(line)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(valid, '\n'))
	f.Add([]byte(`{"network":0,"run":0,"records":[{"Policy":"abm","Network":0,"Run":0,"Result":null}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		lines, err := decodeCellLines(bytes.NewReader(body))
		if err != nil {
			return // answered 400 before Upload
		}
		dir := t.TempDir()
		coord, err := New(Config{Spec: spec, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coord.Upload("", "fuzz", lines); err != nil {
			t.Fatalf("Upload: %v", err)
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := New(Config{Spec: spec, Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		defer resumed.Close()
		if n := resumed.journal.Cells(); n > resumed.total {
			t.Fatalf("resumed journal holds %d cells, grid has %d", n, resumed.total)
		}
	})
}
