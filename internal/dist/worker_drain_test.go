package dist

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

type trackedBody struct {
	*bytes.Reader
	closed bool
}

func (b *trackedBody) Close() error { b.closed = true; return nil }

func TestDrainCloseConsumesAndCloses(t *testing.T) {
	b := &trackedBody{Reader: bytes.NewReader(make([]byte, 4096))}
	drainClose(b)
	if b.Len() != 0 {
		t.Errorf("drainClose left %d unread bytes", b.Len())
	}
	if !b.closed {
		t.Error("drainClose did not close the body")
	}
}

// TestWorkerReusesConnections pins the body discipline of Worker.do,
// the one place the tree reads an *http.Response: the body is closed on
// every path and drained first. The transport returns a connection to
// the keep-alive pool only once the body has been read to EOF and
// closed; a body closed with unread bytes, or never closed, costs a
// fresh connection. Every answer here carries whitespace past its JSON
// value — more than a decoder's first read takes, so without the drain
// the transport never sees EOF. Sequential requests must share one
// connection on the 200 path and on the error path (a non-200 answer
// with a JSON error body) alike.
func TestWorkerReusesConnections(t *testing.T) {
	var mu sync.Mutex
	conns := make(map[string]int)
	trailer := bytes.Repeat([]byte(" "), 8<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr]++
		mu.Unlock()
		io.Copy(io.Discard, r.Body)
		if r.URL.Path == "/reject" {
			writeJSON(w, http.StatusConflict, errorBody{Error: "rejected"})
		} else {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}
		w.Write(trailer)
	}))
	defer srv.Close()

	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	w := &Worker{Coordinator: srv.URL, Client: &http.Client{Transport: tr}}
	for i, path := range []string{"/ack", "/reject", "/ack", "/reject", "/ack"} {
		var out map[string]string
		err := w.postJSON(context.Background(), path, map[string]int{"attempt": i}, &out)
		if path == "/reject" {
			if err == nil || !strings.Contains(err.Error(), "rejected") {
				t.Fatalf("request %d to %s: err = %v, want the JSON error body", i, path, err)
			}
		} else if err != nil {
			t.Fatalf("request %d to %s: %v", i, path, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 1 {
		t.Fatalf("sequential requests used %d connections (want 1 reused keep-alive): %v", len(conns), conns)
	}
}

// TestWorkerStopsOnCancel: cancelling the context stops Worker.Run
// promptly (a) while a lease request is in flight — the request must
// carry the context — and (b) while it waits out PollInterval after a
// "nothing to lease" answer.
func TestWorkerStopsOnCancel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		inFlight bool
	}{{"in-flight request", true}, {"poll wait", false}} {
		inFlight := tc.inFlight
		t.Run(tc.name, func(t *testing.T) {
			// waiting fires once the worker is where cancel must reach
			// it: blocked on the lease request, or done reading the
			// answer and about to sleep.
			waiting := make(chan struct{}, 1)
			signal := func() {
				select {
				case waiting <- struct{}{}:
				default:
				}
			}
			release := make(chan struct{})
			mux := http.NewServeMux()
			mux.HandleFunc("GET /api/v1/dist/spec", func(w http.ResponseWriter, r *http.Request) {
				writeJSON(w, http.StatusOK, testSpec())
			})
			mux.HandleFunc("POST /api/v1/dist/lease", func(w http.ResponseWriter, r *http.Request) {
				if !inFlight {
					writeJSON(w, http.StatusOK, LeaseResponse{Done: false})
					return
				}
				signal()
				select {
				case <-r.Context().Done():
				case <-release:
				}
				w.WriteHeader(http.StatusServiceUnavailable)
			})
			srv := newStrictServer(t, mux)
			t.Cleanup(srv.Close)
			// Runs before srv.Close, so a lease handler still blocked
			// after a failure returns and Run can exit.
			t.Cleanup(func() { close(release) })

			client := &http.Client{Transport: onLeaseBodyClose{signal}}
			w := &Worker{Coordinator: srv.URL, ID: "w1", Client: client, PollInterval: time.Hour, Logf: t.Logf}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()
			select {
			case <-waiting:
			case err := <-done:
				t.Fatalf("Run returned %v before its first lease request", err)
			case <-time.After(10 * time.Second):
				t.Fatal("no lease request within 10s")
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Run = %v after cancel, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Run still running 2s after cancel")
			}
		})
	}
}

// onLeaseBodyClose is a transport that calls fn when a lease response
// body is closed, i.e. once the worker has consumed the answer.
type onLeaseBodyClose struct{ fn func() }

func (o onLeaseBodyClose) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/api/v1/dist/lease" {
		resp.Body = closeHook{resp.Body, o.fn}
	}
	return resp, err
}

type closeHook struct {
	io.ReadCloser
	fn func()
}

func (c closeHook) Close() error {
	err := c.ReadCloser.Close()
	c.fn()
	return err
}
