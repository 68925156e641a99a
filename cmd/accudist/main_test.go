package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/vfs"
)

// TestCoordinatorSIGTERMAsSoonAsHealthy builds the binary and sends the
// coordinator SIGTERM the moment /healthz first answers 200. The signal
// must take the graceful path (journal closed, exit 0, "signal received"
// logged) rather than the default handler's kill. The check repeats so a
// window between serving and installing the handler has room to show.
func TestCoordinatorSIGTERMAsSoonAsHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the accudist binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "accudist")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"preset":"slashdot","policies":[{"name":"abm"}],"networks":1,"runs":1,"k":10,"seed":42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		addr := freeAddr(t)
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-coordinator", "-addr", addr, "-spec", spec,
			"-dir", filepath.Join(dir, fmt.Sprintf("run%d", i)))
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if err := waitHealthy("http://"+addr+"/healthz", 10*time.Second); err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("iteration %d: %v\nstderr:\n%s", i, err, stderr.String())
		}
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("iteration %d: coordinator exited with %v after SIGTERM, want exit 0\nstderr:\n%s", i, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "signal received") {
			t.Fatalf("iteration %d: no \"signal received\" log line; the graceful path did not run\nstderr:\n%s", i, stderr.String())
		}
	}
}

// TestCoordinatorRequiresSpec pins that the grid comes only from a spec
// file: a coordinator without -spec refuses to start.
func TestCoordinatorRequiresSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	err := run([]string{"-coordinator", "-dir", dir}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-spec") {
		t.Fatalf("run without -spec: err = %v, want an error naming -spec", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("state directory created before the spec was checked: %v", err)
	}
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitHealthy polls url until it answers 200 or the timeout passes.
func waitHealthy(url string, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within %v", url, timeout)
}

// TestServeErrorReturnsJournalCloseError: when the coordinator cannot
// serve (its address is taken), run still closes the journal — its last
// fsync — and returns that error beside the serve error, so a coordinator
// never exits over cells it reported durable without saying so.
func TestServeErrorReturnsJournalCloseError(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{"preset":"slashdot","policies":[{"name":"abm"}],"networks":1,"runs":1,"k":10,"seed":42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	rec.Fail(vfs.Fault{Kind: vfs.OpSync, Path: "cells.jsonl", Err: syscall.EIO})
	err = run([]string{"-coordinator", "-addr", taken.Addr().String(), "-spec", spec, "-dir", filepath.Join(dir, "data")}, io.Discard)
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "serve") {
		t.Fatalf("err = %v, want the serve error and the journal's close error", err)
	}
}
