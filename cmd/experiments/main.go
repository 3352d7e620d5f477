// Command experiments runs every experiment of internal/exper (E1–E13, plus
// the fleet-scaling experiment E14) and prints the paper-vs-measured
// tables, each with its notes.
//
// Usage:
//
//	experiments [-seed N] [-only E4]
package main

import (
	"flag"
	"fmt"
	"os"

	"trader/internal/exper"
)

func main() {
	seed := flag.Int64("seed", 42, "base random seed")
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E4)")
	flag.Parse()

	type experiment struct {
		id  string
		run func() (*exper.Table, error)
	}
	s := *seed
	all := []experiment{
		{"E1", func() (*exper.Table, error) { return exper.E1ClosedLoop(s) }},
		{"E2", exper.E2FrameworkOverhead},
		{"E3", func() (*exper.Table, error) { return exper.E3ComparatorTradeoff(s) }},
		{"E4", func() (*exper.Table, error) { return exper.E4Diagnosis(s) }},
		{"E5", func() (*exper.Table, error) { return exper.E5ModeConsistency(s) }},
		{"E6", func() (*exper.Table, error) { return exper.E6Recovery(s) }},
		{"E7", func() (*exper.Table, error) { return exper.E7Migration(s) }},
		{"E8", func() (*exper.Table, error) { return exper.E8Perception(s) }},
		{"E9", func() (*exper.Table, error) { return exper.E9Stress(s) }},
		{"E10", func() (*exper.Table, error) { return exper.E10WarningPriority(s) }},
		{"E11", func() (*exper.Table, error) { return exper.E11ModelQuality(s) }},
		{"E12", func() (*exper.Table, error) { return exper.E12MediaPlayer(s) }},
		{"E13", func() (*exper.Table, error) { return exper.E13FMEA(s) }},
		{"E14", func() (*exper.Table, error) { return exper.E14Fleet(s) }},
	}
	ran := 0
	for _, e := range all {
		if *only != "" && e.id != *only {
			continue
		}
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		tab.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matches -only=%s\n", *only)
		os.Exit(2)
	}
}
