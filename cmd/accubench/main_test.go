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

// TestCheckpointJournalsPerGrid runs experiments that share grids under
// one -checkpoint directory: fig6 and fig7 both read the heat-* sweep, and
// claims reads fig2's and fig4's grids. Each grid is simulated once and
// journaled once, at DIR/<grid>.jsonl with no subdirectory, and a -resume
// rerun simulates no cell and prints the same reports.
func TestCheckpointJournalsPerGrid(t *testing.T) {
	type report struct {
		ID      string          `json:"id"`
		Tables  json.RawMessage `json:"tables"`
		Notes   []string        `json:"notes"`
		Metrics struct {
			Counters []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"counters"`
		} `json:"metrics"`
	}
	parse := func(out string) []report {
		t.Helper()
		var reps []report
		if err := json.Unmarshal([]byte(out), &reps); err != nil {
			t.Fatalf("invalid JSON: %v\n%s", err, out)
		}
		return reps
	}
	cells := func(r report) int64 {
		for _, c := range r.Metrics.Counters {
			if c.Name == "sim.cells" {
				return c.Value
			}
		}
		return 0
	}
	for _, experiments := range [][]string{{"fig6", "fig7", "claims"}, {"all"}} {
		t.Run(strings.Join(experiments, "+"), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			args := append([]string{
				"-json", "-metrics", "-checkpoint", dir, "-scale", "0.02", "-networks", "1", "-runs", "1", "-k", "10",
				"-cautious", "5", "-datasets", "slashdot",
			}, experiments...)
			out, err := capture(t, args)
			if err != nil {
				t.Fatal(err)
			}
			first := parse(out)
			for _, r := range first {
				if r.ID == "fig7" && cells(r) != 0 {
					t.Errorf("fig7 simulated %d cells after fig6 ran its sweep", cells(r))
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			journals := map[string]bool{}
			for _, e := range entries {
				if e.IsDir() {
					t.Errorf("checkpoint directory holds a subdirectory %s", e.Name())
				}
				journals[e.Name()] = true
			}
			for _, grid := range []string{"heat-slashdot-0.1-20.jsonl", "fig2-slashdot.jsonl", "fig4-slashdot.jsonl"} {
				if !journals[grid] {
					t.Errorf("no journal %s in %v", grid, entries)
				}
			}

			out, err = capture(t, append([]string{"-resume"}, args...))
			if err != nil {
				t.Fatal(err)
			}
			resumed := parse(out)
			if len(resumed) != len(first) {
				t.Fatalf("resumed %d reports, want %d", len(resumed), len(first))
			}
			simulated := int64(0)
			for i, r := range resumed {
				simulated += cells(first[i])
				if n := cells(r); n != 0 {
					t.Errorf("%s: resume simulated %d cells, want 0", r.ID, n)
				}
				if r.ID != first[i].ID || string(r.Tables) != string(first[i].Tables) || strings.Join(r.Notes, "\n") != strings.Join(first[i].Notes, "\n") {
					t.Errorf("%s: resumed report differs:\nfirst   %s %v\nresumed %s %v", r.ID, first[i].Tables, first[i].Notes, r.Tables, r.Notes)
				}
			}
			if simulated == 0 {
				t.Error("first run simulated no cell")
			}
		})
	}
}

// TestJSONIdenticalAcrossWorkersAndResume pins that the published tables
// depend on the record set alone. The same command must print
// byte-identical -json output at -workers 1, in repeated -workers 4
// runs (whose records arrive in a different order each time), and after
// an interrupted -checkpoint run is resumed. The interruption is staged
// on the journals, the only state a killed run leaves: each keeps every
// other completed cell and ends in a torn line, so -resume replays one
// part of the grid and computes the rest.
func TestJSONIdenticalAcrossWorkersAndResume(t *testing.T) {
	experiments := []string{"fig2", "fig3", "fig4", "fig5", "ext-batch"}
	grid := []string{"-json", "-scale", "0.05", "-networks", "2", "-runs", "4", "-k", "40", "-datasets", "slashdot"}
	runWith := func(extra ...string) string {
		t.Helper()
		args := append(append(append([]string(nil), grid...), extra...), experiments...)
		out, err := capture(t, args)
		if err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		return out
	}
	want := runWith("-workers", "1")
	for i := 0; i < 3; i++ {
		if got := runWith("-workers", "4"); got != want {
			t.Fatalf("-workers 4 run %d differs from -workers 1:\n got %s\nwant %s", i, got, want)
		}
	}

	dir := filepath.Join(t.TempDir(), "ckpt")
	if got := runWith("-workers", "4", "-checkpoint", dir); got != want {
		t.Fatalf("-checkpoint run differs from -workers 1:\n got %s\nwant %s", got, want)
	}
	journals, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(journals) == 0 {
		t.Fatalf("no journals under %s (%v)", dir, err)
	}
	for _, path := range journals {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		var kept strings.Builder
		for i := 1; i < len(lines); i += 2 {
			kept.WriteString(lines[i] + "\n")
		}
		kept.WriteString(lines[0][:len(lines[0])/2]) // torn append
		if err := os.WriteFile(path, []byte(kept.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := runWith("-workers", "4", "-checkpoint", dir, "-resume"); got != want {
		t.Fatalf("resumed run differs from an uninterrupted one:\n got %s\nwant %s", got, want)
	}
}
