package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI with args and returns stdout contents.
func capture(t *testing.T, args []string) (string, error) {
	t.Helper()
	tmp := filepath.Join(t.TempDir(), "out.txt")
	f, err := os.Create(tmp)
	if err != nil {
		t.Fatal(err)
	}
	runErr := run(args, f)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestListFlag(t *testing.T) {
	out, err := capture(t, []string{"-list"})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "fig2", "fig7", "thm1"} {
		if !strings.Contains(out, id) {
			t.Errorf("missing %q in list output:\n%s", id, out)
		}
	}
}

func TestNoExperiment(t *testing.T) {
	if _, err := capture(t, nil); err == nil {
		t.Error("no experiment: want error")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := capture(t, []string{"figX"}); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestBadFlag(t *testing.T) {
	if _, err := capture(t, []string{"-scale", "nope", "table1"}); err == nil {
		t.Error("bad flag: want error")
	}
}

func TestRunTable1(t *testing.T) {
	out, err := capture(t, []string{
		"-scale", "0.02", "-networks", "1", "-runs", "1",
		"-cautious", "5", "-datasets", "slashdot", "table1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "slashdot") || !strings.Contains(out, "77360") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunThm1(t *testing.T) {
	out, err := capture(t, []string{"thm1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Theorem 1") || strings.Contains(out, "VIOLATED") {
		t.Errorf("output:\n%s", out)
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := capture(t, []string{
		"-scale", "0.02", "-networks", "1", "-runs", "1", "-k", "20",
		"-cautious", "5", "-datasets", "slashdot", "table1", "fig2",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "== table1") || !strings.Contains(out, "== fig2") {
		t.Errorf("output:\n%s", out)
	}
}

func TestJSONReports(t *testing.T) {
	out, err := capture(t, []string{"-json", "thm1"})
	if err != nil {
		t.Fatal(err)
	}
	var reports []struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Tables []struct {
			Header []string   `json:"header"`
			Rows   [][]string `json:"rows"`
		} `json:"tables"`
		Notes []string `json:"notes"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].ID != "thm1" {
		t.Fatalf("reports = %+v", reports)
	}
	if len(reports[0].Tables) == 0 || len(reports[0].Tables[0].Rows) != 3 {
		t.Errorf("tables = %+v", reports[0].Tables)
	}

	// Rendered twice in one process, an experiment's JSON is identical:
	// no map iteration order, worker schedule or clock leaks into it.
	args := []string{
		"-json", "-workers", "4", "-scale", "0.02", "-networks", "2", "-runs", "2", "-k", "20",
		"-cautious", "5", "-datasets", "slashdot", "fig2", "ext-batch",
	}
	first, err := capture(t, args)
	if err != nil {
		t.Fatal(err)
	}
	if second, err := capture(t, args); err != nil || second != first {
		t.Errorf("fig2 + ext-batch JSON changed between two renders (err %v):\nfirst  %s\nsecond %s", err, first, second)
	}
}
