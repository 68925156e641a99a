package serv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzSubmit drives POST /api/v1/jobs with arbitrary bodies. Whatever the
// decoder and Spec.Validate accept must build into a runnable protocol.
func FuzzSubmit(f *testing.F) {
	// The body scripts/service_e2e.sh submits.
	f.Add(`{"id": "e2e_resume", "spec": {"preset": "slashdot", "scale": 0.02, "cautious": 10,
		"policies": [{"name": "abm"}], "networks": 1, "runs": 150, "k": 30, "seed": 7}}`)
	f.Add(`{"spec": {"preset": "facebook", "policies": [{"name": "random"}], "networks": 1,
		"runs": 1, "k": 3, "seed": 1, "cellTimeoutMs": 18446744073710}}`)
	f.Add(`{"spec": {"preset": "dblp", "policies": [{"name": "abm", "wd": 0.2, "wi": 0.8},
		{"name": "pagerank"}], "networks": 2, "runs": 3, "k": 5, "seed": 3, "batchSize": 4,
		"cellTimeoutMs": 9223372036854, "retries": 1, "continueOnError": true}}`)
	f.Add(`{"id": "x", "tenant": "a", "priority": 1, "spec": {}}`)
	f.Fuzz(func(t *testing.T, body string) {
		s, err := New(Config{Dir: t.TempDir()}) // workers not started
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		req := httptest.NewRequest(http.MethodPost, "/api/v1/jobs", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict, http.StatusServiceUnavailable:
			return
		case http.StatusCreated:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var created Job
		if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
			t.Fatalf("parse 201 response: %v", err)
		}
		job, err := s.Get(created.ID)
		if err != nil {
			t.Fatalf("Get(%s) after 201: %v", created.ID, err)
		}
		if _, _, err := job.Spec.Build(nil); err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
	})
}

// FuzzLoadJobs opens a server over a data directory holding one job
// document with arbitrary bytes. New must not panic or create files
// outside its directory, and every job it loads must survive a saveJob →
// loadJobs round trip unchanged.
func FuzzLoadJobs(f *testing.F) {
	current, err := json.Marshal(Job{
		ID: "x", Seq: 3, Spec: testSpec(), State: StateRunning,
		SubmittedAt: time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC),
		Progress:    Progress{Total: 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(current)
	f.Add(legacyJobDoc(f, "x"))
	f.Add([]byte(`{"id": "../../escaped", "state": "running"}`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "data")
		if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "jobs", "x.json"), doc, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dir: dir})
		if out := filesOutside(t, root, dir); len(out) > 0 {
			t.Fatalf("New wrote outside its data directory: %v", out)
		}
		if err != nil {
			return
		}
		want := s.List("")
		for i := range want {
			if err := s.store.saveJob(&want[i]); err != nil {
				t.Fatalf("saveJob(%s) of a loaded job: %v", want[i].ID, err)
			}
		}
		got, err := s.store.loadJobs()
		if err != nil {
			t.Fatalf("loadJobs after saveJob: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip changed the jobs:\n got %+v\nwant %+v", got, want)
		}
	})
}

// filesOutside lists the paths under root that are neither dir nor
// inside it.
func filesOutside(t *testing.T, root, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(path string, _ os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if path != root && path != dir && !strings.HasPrefix(path, dir+string(filepath.Separator)) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
