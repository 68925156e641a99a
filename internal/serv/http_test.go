package serv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// httpServer wires a test Server into an httptest listener whose error
// log fails the test on net/http's "superfluous response.WriteHeader"
// complaint, so every HTTP test also checks that each handler path
// commits its response header once.
func httpServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ErrorLog = log.New(failOnSuperfluous{t}, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// failOnSuperfluous is an http.Server error log that fails t on a
// superfluous WriteHeader and passes every other line to t.Log.
type failOnSuperfluous struct{ t *testing.T }

func (w failOnSuperfluous) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("superfluous response.WriteHeader")) {
		w.t.Errorf("http server: %s", p)
	} else {
		w.t.Logf("http server: %s", p)
	}
	return len(p), nil
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func TestHTTPSubmitLifecycle(t *testing.T) {
	s := newTestServer(t, Config{})
	gate := make(chan struct{})
	s.execute = func(ctx context.Context, e *entry) (*Result, error) {
		<-gate
		e.done.Store(8)
		return &Result{Records: 8, Digest: "deadbeef"}, nil
	}
	s.Start()
	defer drain(t, s)
	ts := httpServer(t, s)

	resp, body := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{ID: "httpjob", Spec: testSpec()})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("parse submit response: %v", err)
	}
	if job.ID != "httpjob" || job.State != StateQueued {
		t.Fatalf("job = %+v, want httpjob/queued", job)
	}

	// Result of an unfinished job conflicts.
	waitState(t, s, "httpjob", StateRunning)
	resp, _ = getJSON(t, ts.URL+"/api/v1/jobs/httpjob/result")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result-while-running status = %d, want 409", resp.StatusCode)
	}

	close(gate)
	waitState(t, s, "httpjob", StateDone)

	resp, body = getJSON(t, ts.URL+"/api/v1/jobs/httpjob")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatalf("parse job: %v", err)
	}
	if job.State != StateDone {
		t.Fatalf("state = %s, want done", job.State)
	}

	resp, body = getJSON(t, ts.URL+"/api/v1/jobs/httpjob/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d", resp.StatusCode)
	}
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("parse result: %v", err)
	}
	if res.Digest != "deadbeef" || res.Records != 8 {
		t.Fatalf("result = %+v", res)
	}

	resp, body = getJSON(t, ts.URL+"/api/v1/jobs?state=done")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("parse list: %v", err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("list = %d jobs, want 1", len(list.Jobs))
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httpServer(t, s) // workers not started: jobs stay queued

	if resp, _ := getJSON(t, ts.URL+"/api/v1/jobs/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
	if resp, body := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{ID: "Bad ID", Spec: testSpec()}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid id status = %d, body %s, want 400", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/api/v1/jobs", map[string]any{"bogus": true}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, body %s, want 400", resp.StatusCode, body)
	}

	if resp, body := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{ID: "q1", Spec: testSpec()}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{ID: "q1", Spec: testSpec()}); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate status = %d, want 409", resp.StatusCode)
	}
	// tenant and priority are not SubmitRequest fields, so the decoder
	// rejects them as unknown.
	for _, field := range []string{"tenant", "priority"} {
		body := map[string]any{"id": "q2", field: "x", "spec": testSpec()}
		if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with %s status = %d, want 400", field, resp.StatusCode)
		}
	}
	// The retired cell-fault knobs are no longer Spec fields either.
	for field, value := range map[string]any{"cellTimeoutMs": 1000, "retries": 1, "continueOnError": true, "maxFailures": 2} {
		body := map[string]any{"id": "q2", "spec": testSpecDoc(t, map[string]any{field: value})}
		if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with spec.%s status = %d, want 400", field, resp.StatusCode)
		}
	}
	if resp, _ := getJSON(t, ts.URL+"/api/v1/jobs/q1/events"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("events status = %d, want 404 (no SSE endpoint)", resp.StatusCode)
	}

	if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs/q1/cancel", nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("cancel status = %d, want 202", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs/q1/cancel", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("re-cancel status = %d, want 409", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs/q1/resume", nil); resp.StatusCode != http.StatusAccepted {
		t.Errorf("resume status = %d, want 202", resp.StatusCode)
	}

	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status = %d, want 200", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/metrics?job=nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("metrics unknown job status = %d, want 404", resp.StatusCode)
	}
	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("metrics status = %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), "serv.jobs_submitted") {
		t.Errorf("metrics body missing serv.jobs_submitted: %s", body)
	}

	drain(t, s)
	if resp, _ := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/api/v1/jobs", SubmitRequest{ID: "late", Spec: testSpec()}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status = %d, want 503", resp.StatusCode)
	}

	// The mapping sees through wrapping: each sentinel gives the same
	// status bare, %w-wrapped and joined with another error.
	for _, tc := range []struct {
		sentinel error
		status   int
	}{
		{ErrNotFound, http.StatusNotFound},
		{ErrDuplicateJob, http.StatusConflict},
		{ErrConflict, http.StatusConflict},
		{ErrDraining, http.StatusServiceUnavailable},
	} {
		for _, err := range []error{
			tc.sentinel,
			fmt.Errorf("serv: job q1: %w", tc.sentinel),
			errors.Join(errors.New("serv: other"), tc.sentinel),
		} {
			rec := httptest.NewRecorder()
			writeError(rec, err)
			if rec.Code != tc.status {
				t.Errorf("writeError(%q) status = %d, want %d", err, rec.Code, tc.status)
			}
		}
	}
}
