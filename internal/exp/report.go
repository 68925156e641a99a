package exp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/sim"
	"github.com/accu-sim/accu/internal/stats"
)

// Report is the output of one experiment: structured tables (for JSON
// export and plotting), their plain-text rendering, and free-form shape
// notes for EXPERIMENTS.md.
type Report struct {
	// ID is the experiment key ("fig2", "table1", ...).
	ID string `json:"id"`
	// Title describes the paper artifact being reproduced.
	Title string `json:"title"`
	// Tables holds the structured results, one per section.
	Tables []stats.Table `json:"tables"`
	// Rendered is the plain-text table/series output.
	Rendered string `json:"-"`
	// Notes lists observed qualitative shapes (who wins, crossovers).
	Notes []string `json:"notes,omitempty"`
	// MetricsSnapshot holds the engine/environment/policy metrics
	// captured after the experiment when Config.Metrics was set.
	MetricsSnapshot *obs.Snapshot `json:"metrics,omitempty"`
}

// Metrics returns the metrics snapshot captured for this report, or nil
// when the experiment ran without a registry.
func (r *Report) Metrics() *obs.Snapshot { return r.MetricsSnapshot }

// newReport assembles a report, deriving the text rendering from the
// structured tables.
func newReport(id, title string, tables []stats.Table, notes []string) *Report {
	var sb strings.Builder
	for i, t := range tables {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(t.Render())
	}
	return &Report{ID: id, Title: title, Tables: tables, Rendered: sb.String(), Notes: notes}
}

// String renders the report for terminal output.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n\n", r.ID, r.Title)
	sb.WriteString(r.Rendered)
	if len(r.Notes) > 0 {
		sb.WriteString("\nNotes:\n")
		for _, n := range r.Notes {
			fmt.Fprintf(&sb, "  - %s\n", n)
		}
	}
	return sb.String()
}

// Runner executes one experiment.
type Runner func(ctx context.Context, cfg Config) (*Report, error)

// Registry maps experiment ids to runners, covering every table and
// figure of §IV plus the Theorem 1 verification.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1":    Table1,
		"fig2":      Fig2,
		"fig3":      Fig3,
		"fig4":      Fig4,
		"fig5":      Fig5,
		"fig6":      Fig6,
		"fig7":      Fig7,
		"thm1":      Theorem1,
		"ext-soft":  ExtSoft,
		"ext-batch": ExtBatch,
		"claims":    Claims,
	}
}

// Run runs the experiments ids in order under one config, handing each
// report to emit. It owns the call's grid table: each named grid is
// simulated at most once, and its readers share the result (claims reads
// Fig. 2's and Fig. 4's grids, Fig. 7 Fig. 6's). With cfg.Metrics set,
// each report's snapshot covers the cells its experiment simulated: the
// first counts into cfg.Metrics, each later one into a fresh registry.
func Run(ctx context.Context, ids []string, cfg Config, emit func(*Report)) error {
	reg := Registry()
	for i, id := range ids {
		if reg[id] == nil || slices.Contains(ids[:i], id) {
			return fmt.Errorf("exp: unknown or repeated experiment %q (have %v)", id, IDs())
		}
	}
	cfg.grids = make(map[string]*sim.Summary)
	for i, id := range ids {
		if i > 0 && cfg.Metrics != nil {
			cfg.Metrics = obs.New()
		}
		rep, err := reg[id](ctx, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		rep.MetricsSnapshot = cfg.Metrics.Snapshot()
		emit(rep)
	}
	return nil
}

// IDs returns the registry keys in stable order.
func IDs() []string {
	var ids []string
	for id := range Registry() {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
