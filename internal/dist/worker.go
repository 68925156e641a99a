package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"github.com/accu-sim/accu/internal/serv"
	"github.com/accu-sim/accu/internal/sim"
)

// Worker executes leased cell ranges against a coordinator. It fetches
// the grid spec once, then loops: lease a range, run the unmodified
// engine restricted to that range, and stream the completed cells back
// in JSONL batches (see rangeCheckpointer). A cell only counts as
// committed once the coordinator acks its batch durable — an upload
// failure aborts the range (the engine treats a Checkpointer.Commit
// error as fatal), the worker reports the lease failed, and the range
// reassigns. A failed cell also releases the lease, after the cells
// before it are uploaded, but stops the worker: the engine is
// deterministic, so the same cell would fail on every lease.
type Worker struct {
	// Coordinator is the base URL, e.g. "http://127.0.0.1:9090".
	Coordinator string
	// ID names this worker in leases and metrics (required).
	ID string
	// Client is the HTTP client (nil uses http.DefaultClient).
	Client *http.Client
	// PollInterval spaces lease retries when every range is taken and
	// transient-error retries (default 500ms).
	PollInterval time.Duration
	// Throttle sleeps before each cell commit — a test/e2e knob to slow
	// a worker down so stragglers and mid-range kills are reproducible.
	// Above uploadEvery it makes every cell upload alone.
	Throttle time.Duration
	// Logf logs worker events (nil disables).
	Logf func(format string, args ...any)
	// Mutate, when non-nil, adjusts the built protocol before each range
	// runs — the chaos-injection hook (wrap Gen/Setup in fault wrappers).
	Mutate func(p *sim.Protocol)
}

// maxRetries bounds consecutive transient network failures before
// Worker.Run gives up.
const maxRetries = 5

// Run executes ranges until the coordinator reports the grid done (nil),
// a cell fails (its *sim.CellError, after releasing the lease), the
// context is canceled, or the coordinator stays unreachable past
// maxRetries consecutive attempts.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" {
		return fmt.Errorf("dist: worker without ID")
	}
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	poll := w.PollInterval
	if poll <= 0 {
		poll = 500 * time.Millisecond
	}

	var spec serv.Spec
	if err := w.getJSON(ctx, "/api/v1/dist/spec", &spec); err != nil {
		return fmt.Errorf("dist: fetch spec: %w", err)
	}
	protocol, factories, err := spec.Build(nil)
	if err != nil {
		return fmt.Errorf("dist: build spec: %w", err)
	}

	transient := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp LeaseResponse
		err := w.postJSON(ctx, "/api/v1/dist/lease", LeaseRequest{Worker: w.ID}, &resp)
		if err != nil {
			var uerr *url.Error
			if transient++; errors.As(err, &uerr) && transient <= maxRetries {
				logf("dist: worker %s: coordinator unreachable (%d/%d): %v", w.ID, transient, maxRetries, err)
				if !sleepCtx(ctx, poll) {
					return ctx.Err()
				}
				continue
			}
			return fmt.Errorf("dist: lease: %w", err)
		}
		transient = 0
		if resp.Done {
			logf("dist: worker %s: grid complete", w.ID)
			return nil
		}
		if resp.Lease == nil {
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		lease := resp.Lease
		logf("dist: worker %s: leased [%d,%d) as %s", w.ID, lease.Start, lease.End, lease.ID)
		if err := w.runRange(ctx, protocol, factories, lease); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			logf("dist: worker %s: range [%d,%d) failed: %v", w.ID, lease.Start, lease.End, err)
			// Best effort: release the lease so the range reassigns now.
			_ = w.postJSON(ctx, "/api/v1/dist/fail", FailRequest{
				Worker: w.ID, Lease: lease.ID, Error: err.Error(),
			}, &struct{}{})
			// A failed cell fails again on every lease; only upload and
			// transport errors are worth another.
			if errors.As(err, new(*sim.CellError)) {
				return fmt.Errorf("dist: range [%d,%d): %w", lease.Start, lease.End, err)
			}
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
		}
	}
}

// runRange executes one leased range with the stock engine: the
// range-restricted checkpointer marks everything outside [Start, End) as
// already done, so the engine schedules only the leased cells, and it
// uploads the completed cells in batches. The range ends with a flush of
// the last batch — also when a cell failed, so the cells before it are
// durable before the *sim.CellError is returned.
func (w *Worker) runRange(ctx context.Context, protocol sim.Protocol, factories []sim.PolicyFactory, lease *Lease) error {
	rc := &rangeCheckpointer{w: w, ctx: ctx, lease: lease, runs: protocol.Runs, last: time.Now()}
	p := protocol // per-range copy; Checkpoint and hooks are range-local
	p.Checkpoint = rc
	if w.Mutate != nil {
		w.Mutate(&p)
	}
	// Aggregation happens coordinator-side; records are delivered there
	// through the checkpointer's uploads.
	err := sim.Run(ctx, p, factories, func(sim.Record) {})
	if err == nil || errors.As(err, new(*sim.CellError)) {
		err = errors.Join(err, rc.flush())
	}
	return err
}

const (
	// uploadBatch is the most cells one upload carries: the default
	// range size, so a range of fast cells uploads once.
	uploadBatch = defaultRangeSize
	// uploadEvery is how long a range may go without an upload before a
	// completed cell flushes the batch at once: a slow cell uploads
	// alone, and the lease heartbeat keeps its rhythm.
	uploadEvery = 100 * time.Millisecond
)

// rangeCheckpointer restricts the engine to one leased range and streams
// commits to the coordinator. Done claims every out-of-range cell is
// already recorded (the engine then skips it). Commit buffers the cell's
// journal line and uploads the buffer as one JSONL body once it holds
// uploadBatch cells or uploadEvery has passed since the last upload;
// runRange flushes what is left. An upload fails unless the coordinator
// acks the whole batch durable.
type rangeCheckpointer struct {
	w     *Worker
	ctx   context.Context
	lease *Lease
	runs  int

	// mu serializes Commit (called from every engine worker) and flush.
	mu    sync.Mutex
	buf   []byte    // encoded cell lines not yet uploaded
	cells int       // cell lines in buf
	last  time.Time // when the range started or last uploaded
}

func (rc *rangeCheckpointer) Done(key sim.CellKey) bool {
	ci := indexOf(key, rc.runs)
	return ci < rc.lease.Start || ci >= rc.lease.End
}

func (rc *rangeCheckpointer) Commit(key sim.CellKey, recs []sim.Record) error {
	if rc.w.Throttle > 0 {
		if !sleepCtx(rc.ctx, rc.w.Throttle) {
			return rc.ctx.Err()
		}
	}
	line, err := sim.EncodeCellLine(&sim.CellLine{CellKey: key, Records: recs})
	if err != nil {
		return err
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.buf = append(rc.buf, line...)
	rc.cells++
	if rc.cells >= uploadBatch || time.Since(rc.last) >= uploadEvery {
		return rc.flushLocked()
	}
	return nil
}

// flush uploads the buffered cells, if any.
func (rc *rangeCheckpointer) flush() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.flushLocked()
}

func (rc *rangeCheckpointer) flushLocked() error {
	if rc.cells == 0 {
		return nil
	}
	q := url.Values{"lease": {rc.lease.ID}, "worker": {rc.w.ID}}
	var resp UploadResponse
	if err := rc.w.post(rc.ctx, "/api/v1/dist/cells?"+q.Encode(), "application/jsonl", bytes.NewReader(rc.buf), &resp); err != nil {
		return fmt.Errorf("upload %d cell(s): %w", rc.cells, err)
	}
	rc.buf, rc.cells, rc.last = rc.buf[:0], 0, time.Now()
	return nil
}

// --- HTTP plumbing ---

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

func (w *Worker) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.Coordinator+path, nil)
	if err != nil {
		return err
	}
	return w.do(req, out)
}

func (w *Worker) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return w.post(ctx, path, "application/json", bytes.NewReader(body), out)
}

func (w *Worker) post(ctx context.Context, path, contentType string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Coordinator+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	return w.do(req, out)
}

// drainClose drains what is left of a response body (bounded, in case a
// misbehaving peer streams forever) and closes it. A body closed before
// EOF — a JSON decoder stops at the end of its value and can leave
// trailing bytes unread — forces the transport to discard the
// connection instead of returning it to the keep-alive pool, which under
// upload load means a fresh TCP handshake per cell batch.
func drainClose(rc io.ReadCloser) {
	io.Copy(io.Discard, io.LimitReader(rc, 64<<10))
	rc.Close()
}

func (w *Worker) do(req *http.Request, out any) error {
	resp, err := w.client().Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		var eb errorBody
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, eb.Error)
		}
		return fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// sleepCtx sleeps d or until ctx is done; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
