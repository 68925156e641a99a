package serv

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzSubmit drives POST /api/v1/jobs with arbitrary bodies. Whatever the
// decoder and Spec.Validate accept must build into a runnable protocol
// whose per-cell timeout is exactly the submitted milliseconds.
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
		p, _, err := job.Spec.Build(nil)
		if err != nil {
			t.Fatalf("accepted spec does not build: %v", err)
		}
		ms := int64(job.Spec.CellTimeoutMS)
		if p.CellTimeout%time.Millisecond != 0 || int64(p.CellTimeout/time.Millisecond) != ms {
			t.Fatalf("CellTimeout = %v, want exactly %d ms", p.CellTimeout, ms)
		}
	})
}
