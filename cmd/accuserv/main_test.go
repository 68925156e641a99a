package main

import (
	"bytes"
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
	bin := filepath.Join(dir, "accuserv")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
