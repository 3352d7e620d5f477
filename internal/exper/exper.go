// Package exper implements the experiment harness: one function per
// experiment (E1–E13, plus the fleet-scaling E14Fleet), each regenerating
// the corresponding figure or case-study claim of the paper as a printable
// table.
// cmd/experiments runs them all; the repository-root benchmarks wrap them
// as testing.B targets.
package exper

import (
	"fmt"
	"io"
	"strings"

	"trader/internal/core"
	"trader/internal/sim"
	"trader/internal/statemachine"
	"trader/internal/tvsim"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry the paper-vs-measured commentary cmd/experiments prints
	// under the table.
	Notes []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// TVObservables is the reference monitor configuration for the TV SUO used
// across experiments.
func TVObservables() core.Configuration {
	return core.Configuration{
		Observables: []core.Observable{
			{Name: "audio-volume", EventName: "audio", ValueName: "volume", ModelVar: "volume", Threshold: 0.5, Tolerance: 1},
			{Name: "channel", EventName: "screen", ValueName: "channel", ModelVar: "channel"},
			{Name: "teletext-visible", EventName: "screen", ValueName: "teletext", ModelVar: "teletext"},
			{Name: "teletext-fresh", EventName: "teletext", ValueName: "fresh", ModelVar: "teletextFresh", Tolerance: 2, EnableVar: "teletext"},
			{Name: "frame-quality", EventName: "frame", ValueName: "quality", ModelVar: "quality", Threshold: 0.3, Tolerance: 3, EnableVar: "power",
				MaxSilence: 200 * sim.Millisecond},
			{Name: "swivel-angle", EventName: "swivel", ValueName: "angle", ModelVar: "swivelTarget", Threshold: 0.5, Tolerance: 60},
		},
	}
}

// NewMonitoredTV builds the standard monitored TV: simulator, spec model
// (with the partial frame-quality expectation mirrored from the power
// state), monitor attached to the TV bus.
func NewMonitoredTV(seed int64, cfg tvsim.Config) (*sim.Kernel, *tvsim.TV, *core.Monitor, error) {
	k := sim.NewKernel(seed)
	tv := tvsim.New(k, cfg)
	model := tvsim.BuildSpecModel(k, cfg)
	tvsim.MirrorQuality(model)
	mon, err := core.NewMonitor(k, model, TVObservables())
	if err != nil {
		return nil, nil, nil, err
	}
	if err := mon.Start(); err != nil {
		return nil, nil, nil, err
	}
	mon.AttachBus(tv.Bus())
	return k, tv, mon, nil
}

// mustModelStart panics on model start failure (experiment harness setup).
func mustModelStart(m *statemachine.Model) {
	if err := m.Start(); err != nil {
		panic(err)
	}
}
