package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildPrograms compiles the programs under test from the checkout at
// root into dir. It runs before any timer starts.
func buildPrograms(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/accurun", "./cmd/accuserv", "./cmd/accudist")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build programs under test: %v\n%s", err, out)
	}
	return nil
}

// proc is one started program under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	start  time.Time
	exited chan struct{} // closed once Wait has returned
	end    time.Time
	err    error
	output *syncBuffer // stdout and stderr, for diagnostics
}

// procs owns every program a round starts; stopAll kills and reaps the
// ones still running, so no error path leaks a process.
type procs struct {
	list []*proc
}

// start launches bin with args. stderr, when non-nil, additionally
// receives the program's standard error as it is written.
func (ps *procs) start(name, bin string, stderr io.Writer, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{}), output: &syncBuffer{}}
	p.cmd.Stdout = p.output
	p.cmd.Stderr = p.output
	if stderr != nil {
		p.cmd.Stderr = io.MultiWriter(p.output, stderr)
	}
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	ps.list = append(ps.list, p)
	go func() {
		p.err = p.cmd.Wait()
		p.end = time.Now()
		close(p.exited)
	}()
	return p, nil
}

// wait blocks until the program exits and reports a non-zero exit as an
// error carrying the program's output.
func (p *proc) wait(ctx context.Context) error {
	select {
	case <-p.exited:
	case <-ctx.Done():
		return fmt.Errorf("%s still running: %w", p.name, ctx.Err())
	}
	if p.err != nil {
		return fmt.Errorf("%s: %v\n%s", p.name, p.err, tail(p.output.String()))
	}
	return nil
}

// running reports whether the program has not exited yet.
func (p *proc) running() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// usage returns the exited program's CPU time and peak resident set.
func (p *proc) usage() (cpu time.Duration, rssMB float64) {
	ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports ru_maxrss in KiB
}

// stopAll kills every program still running and waits for all of them.
func (ps *procs) stopAll() {
	for _, p := range ps.list {
		if p.running() {
			_ = p.cmd.Process.Kill() // it may exit between the check and the kill
		}
		<-p.exited
	}
	ps.list = nil
}

// syncBuffer is a bytes.Buffer safe for the writer goroutines exec
// starts and a reader polling it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// lineWatch records when text containing marker is first written and
// closes seenCh then.
type lineWatch struct {
	marker string
	seenCh chan struct{}
	mu     sync.Mutex
	buf    bytes.Buffer
	at     time.Time
}

func newLineWatch(marker string) *lineWatch {
	return &lineWatch{marker: marker, seenCh: make(chan struct{})}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.at.IsZero() {
		w.buf.Write(p)
		if strings.Contains(w.buf.String(), w.marker) {
			w.at = now
			close(w.seenCh)
		}
	}
	return len(p), nil
}

// seen returns when the marker was written (zero if never).
func (w *lineWatch) seen() time.Time {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.at
}

func tail(s string) string {
	const max = 2000
	if len(s) > max {
		return "…" + s[len(s)-max:]
	}
	return s
}

// freeAddr returns an ephemeral loopback address nothing listens on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

var client = &http.Client{Timeout: 30 * time.Second}

// waitHealthy polls base/healthz every 0.5 ms (set-up is a metric) until
// it answers 200, and returns when it first did.
func waitHealthy(ctx context.Context, p *proc, base string) (time.Time, error) {
	var at time.Time
	err := pollEvery(ctx, 500*time.Microsecond, func() (bool, error) {
		if code, err := getJSON(ctx, base+"/healthz", nil); err == nil && code == http.StatusOK {
			at = time.Now()
			return true, nil
		}
		if !p.running() {
			return false, fmt.Errorf("%s exited during start-up: %v\n%s", p.name, p.err, tail(p.output.String()))
		}
		return false, nil
	})
	if err != nil && at.IsZero() && ctx.Err() != nil {
		err = fmt.Errorf("%s never became healthy: %w", p.name, err)
	}
	return at, err
}

// getJSON fetches url and returns the HTTP status, decoding a 200 response
// into out unless out is nil.
func getJSON(ctx context.Context, url string, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK || out == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// postJSON posts body as JSON and decodes the response into out when the
// status is want.
func postJSON(ctx context.Context, url string, body, out any, want int) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	return post(ctx, url, "application/json", data, out, want)
}

func post(ctx context.Context, url, contentType string, data []byte, out any, want int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drain reads what is left of a response body and closes it, so the
// connection returns to the keep-alive pool.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}

// pollEvery calls check every d until it reports done or fails.
func pollEvery(ctx context.Context, d time.Duration, check func() (bool, error)) error {
	tick := time.NewTicker(d)
	defer tick.Stop()
	for {
		done, err := check()
		if err != nil || done {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func fileBytes(path string) (int64, error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// copyFile copies src to dst (dst must not exist).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
