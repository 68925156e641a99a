package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestWorkersHelp pins that -workers documents what serv.New does with
// 0: it runs one job at a time, not one per CPU.
func TestWorkersHelp(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-h"}, &buf); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(buf.String(), "concurrent jobs (0 = one at a time)") {
		t.Errorf("-workers help does not say 0 runs one job at a time:\n%s", buf.String())
	}
}

// TestSIGTERMAsSoonAsHealthy builds the binary and sends the server
// SIGTERM the moment /healthz first answers 200. The signal must take the
// graceful path (workers drained, exit 0, "drained" logged) rather than
// the default handler's kill. The check repeats so a window between
// serving and installing the handler has room to show.
func TestSIGTERMAsSoonAsHealthy(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the accuserv binary")
	}
	dir := t.TempDir()
	bin := buildServer(t, dir)
	for i := 0; i < 10; i++ {
		addr := freeAddr(t)
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-data", filepath.Join(dir, fmt.Sprintf("data%d", i)))
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
			t.Fatalf("iteration %d: server exited with %v after SIGTERM, want exit 0\nstderr:\n%s", i, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), "drained") {
			t.Fatalf("iteration %d: no \"drained\" log line; the graceful path did not run\nstderr:\n%s", i, stderr.String())
		}
	}
}

// TestFailedJobRunsOnce pins the one failure rule: a job whose execution
// fails goes straight to failed after a single claim, under the default
// flags. Every cell of this job fails in set-up (the preset has far fewer
// cautious-user candidates than asked for), so a retry could only repeat
// the failure; the admin resume endpoint is the way to run it again.
func TestFailedJobRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the accuserv binary")
	}
	dir := t.TempDir()
	bin := buildServer(t, dir)
	addr := freeAddr(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-data", filepath.Join(dir, "data"))
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	base := "http://" + addr
	if err := waitHealthy(base+"/healthz", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	body := `{"id": "doomed", "spec": {"preset": "slashdot", "cautious": 100000,
		"policies": [{"name": "random"}], "networks": 1, "runs": 2, "k": 5, "seed": 1}}`
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: status %d, want 201", resp.StatusCode)
	}
	var job struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	deadline := time.Now().Add(30 * time.Second)
	for job.State != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("job state %q after 30s, want failed", job.State)
		}
		time.Sleep(10 * time.Millisecond)
		resp, err := http.Get(base + "/api/v1/jobs/doomed")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(job.Error, "not enough cautious-user candidates") {
		t.Errorf("job error = %q, want the set-up failure", job.Error)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("server exited with %v after SIGTERM\nstderr:\n%s", err, stderr.String())
	}
	if n := strings.Count(stderr.String(), "job doomed: claimed"); n != 1 {
		t.Errorf("job claimed %d times, want 1\nstderr:\n%s", n, stderr.String())
	}
}

// buildServer builds the accuserv binary into dir and returns its path.
func buildServer(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "accuserv")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
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
