package serv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the service's HTTP API:
//
//	POST /api/v1/jobs              submit a job (SubmitRequest body)
//	GET  /api/v1/jobs              list jobs (?state=)
//	GET  /api/v1/jobs/{id}         one job document with live progress
//	GET  /api/v1/jobs/{id}/result  the finished job's Result
//	POST /api/v1/jobs/{id}/cancel  cancel a queued or running job
//	POST /api/v1/jobs/{id}/resume  requeue a failed/cancelled job
//	GET  /metrics                  merged metrics snapshot (?job=<id>)
//	GET  /healthz                  liveness (503 while draining)
//
// A submit is admitted on the spec's shape alone (Spec.Validate): no
// network is generated at admission, so a spec whose networks turn out
// too small for its cautious count is accepted and the job ends failed,
// its error naming the set-up's shortfall.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /api/v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON emits one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrDuplicateJob), errors.Is(err, ErrConflict):
		status = http.StatusConflict
	case errors.Is(err, ErrDraining):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, fmt.Errorf("serv: parse submit request: %w", err))
		return
	}
	job, err := s.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, job)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.List(State(r.URL.Query().Get("state")))
	writeJSON(w, http.StatusOK, struct {
		Jobs []Job `json:"jobs"`
	}{Jobs: jobs})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	if job.State != StateDone || job.Result == nil {
		writeError(w, fmt.Errorf("%w: job %s is %s, result requires done", ErrConflict, job.ID, job.State))
		return
	}
	writeJSON(w, http.StatusOK, job.Result)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	job, err := s.Resume(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.Metrics(r.URL.Query().Get("job"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, struct {
			Status string `json:"status"`
		}{Status: "draining"})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}
