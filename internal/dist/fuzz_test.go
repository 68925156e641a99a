package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/sim"
)

// FuzzUpload feeds arbitrary cell-upload bodies through the coordinator's
// reader (sim.ReadCellLines) and Upload, then resumes the journal they
// left behind. Neither step may panic, Upload accounts for every line as
// accepted, duplicate or rejected, and the resumed journal holds exactly
// the accepted cells, never more than the grid has. The reader alone is
// checked against encoding/json by sim's FuzzReadCellLines, which needs
// no disk.
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
	valid, err := sim.EncodeCellLine(&line)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	malformed := []byte(`{"network":0,"run":0,"records":[{"Policy":"abm","Network":0,"Run":0,"Result":null}]}`)
	f.Add(malformed)
	// A batch as a worker uploads it: several cells, one of them twice,
	// and a line that is not a complete cell of the grid.
	var batch []byte
	for _, key := range []sim.CellKey{{Network: 0, Run: 0}, {Network: 0, Run: 1}, {Network: 1, Run: 2}, {Network: 0, Run: 1}} {
		cl := sim.CellLine{CellKey: key}
		for _, rec := range line.Records {
			rec.Network, rec.Run = key.Network, key.Run
			cl.Records = append(cl.Records, rec)
		}
		b, err := sim.EncodeCellLine(&cl)
		if err != nil {
			f.Fatal(err)
		}
		batch = append(batch, b...)
	}
	f.Add(append(batch, malformed...))
	// The edges of the one-value-per-line grammar.
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, valid, "", "  "); err != nil {
		f.Fatal(err)
	}
	oneLine := bytes.TrimSuffix(valid, []byte("\n"))
	f.Add(append(slices.Clip(oneLine), malformed...))            // two values on one line
	f.Add(pretty.Bytes())                                        // one value over several lines
	f.Add(bytes.ReplaceAll(batch, []byte("\n"), []byte("\r\n"))) // CRLF line endings
	f.Add([]byte("\n \t\n" + string(valid) + "\r\n\n"))          // blank lines
	f.Add(bytes.TrimSuffix(batch, []byte("\n")))                 // last line without its newline

	f.Fuzz(func(t *testing.T, body []byte) {
		lines, err := sim.ReadCellLines(bytes.NewReader(body))
		if err != nil {
			return // answered 400 before Upload
		}
		dir := t.TempDir()
		coord, err := New(Config{Spec: spec, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := coord.Upload("", "fuzz", lines)
		if err != nil {
			t.Fatalf("Upload: %v", err)
		}
		if n := resp.Accepted + resp.Duplicate + resp.Rejected; n != len(lines) {
			t.Fatalf("Upload answered %+v for %d lines", resp, len(lines))
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
		resumed, err := New(Config{Spec: spec, Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		defer resumed.Close()
		if n := resumed.journal.Cells(); n > resumed.total || n != resp.Accepted {
			t.Fatalf("resumed journal holds %d cells, grid has %d, upload accepted %d", n, resumed.total, resp.Accepted)
		}
	})
}

// FuzzLeaseAndFail drives the lease and fail handlers with fuzzed JSON
// bodies, interleaved on one coordinator. The script holds one request
// per line: 'L' then a lease body, or 'F' then a fail body. No request may
// panic or register the empty worker, every leased range must name the
// worker its lease ID was granted to, and a lease ends only when that
// worker fails it (nothing uploads, and the TTL outlives the run).
func FuzzLeaseAndFail(f *testing.F) {
	f.Add("L{\"worker\":\"A\"}\nF{\"worker\":\"A\",\"lease\":\"r0-a1\",\"error\":\"x\"}\nL{\"worker\":\"B\"}")
	f.Add("L{\"worker\":\"A\"}\nF{\"worker\":\"B\",\"lease\":\"r0-a1\"}\nL{\"worker\":\"C\"}")
	f.Add("L{\"worker\":\"A\"}\nF{\"lease\":\"r0-a1\"}\nF{\"worker\":\"\",\"lease\":\"r0-a1\"}\nL{\"worker\":\"\"}")
	f.Add("L{\"worker\":\"A\"}\nL{\"worker\":\"A\"}\nL{\"worker\":\"A\"}\nF{\"worker\":\"A\",\"lease\":\"r1-a1\"}\nL{\"worker\":\"B\"}")
	f.Add("L\nFnull\nL[]\nF{\"worker\":7}\nL{\"worker\":\"A\"}{\"worker\":\"B\"}")

	f.Fuzz(func(t *testing.T, script string) {
		coord, err := New(Config{Spec: testSpec(), Dir: t.TempDir(), RangeSize: 2, LeaseTTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		granted := map[string]string{} // lease ID -> worker it was granted to
		live := map[string]bool{}      // granted leases their worker has not failed
		for _, line := range strings.Split(script, "\n") {
			if line == "" {
				continue
			}
			// Decode as the handlers do: the first JSON value counts.
			dec := json.NewDecoder(strings.NewReader(line[1:]))
			rec := httptest.NewRecorder()
			body := strings.NewReader(line[1:])
			if line[0] == 'L' {
				coord.handleLease(rec, httptest.NewRequest(http.MethodPost, "/api/v1/dist/lease", body))
				var resp LeaseResponse
				if rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &resp) == nil && resp.Lease != nil {
					var req LeaseRequest
					_ = dec.Decode(&req)
					granted[resp.Lease.ID] = req.Worker
					live[resp.Lease.ID] = true
				}
			} else {
				coord.handleFail(rec, httptest.NewRequest(http.MethodPost, "/api/v1/dist/fail", body))
				var req FailRequest
				if rec.Code == http.StatusOK && dec.Decode(&req) == nil && live[req.Lease] && granted[req.Lease] == req.Worker {
					delete(live, req.Lease)
				}
			}
			st := coord.Status()
			for _, w := range st.Workers {
				if w == "" {
					t.Fatalf("after %q: the empty worker is registered", line)
				}
			}
			held := map[string]bool{}
			for _, r := range st.Ranges {
				if r.Lease == "" {
					continue
				}
				held[r.Lease] = true
				if granted[r.Lease] != r.Worker {
					t.Fatalf("after %q: range [%d,%d) under lease %s names %q, granted to %q",
						line, r.Start, r.End, r.Lease, r.Worker, granted[r.Lease])
				}
			}
			for id := range live {
				if !held[id] {
					t.Fatalf("after %q: lease %s of worker %q ended without its worker failing it", line, id, granted[id])
				}
			}
		}
	})
}
