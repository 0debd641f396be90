// Command cfpq-bench regenerates the paper's evaluation — Table 1, Table 2
// — and the ablation studies; the committed BENCH_paper.json is one run of
// it.
//
// Usage:
//
//	cfpq-bench                       # both tables, then the ablations
//	cfpq-bench -table 1              # Table 1 only (Query 1, all 14 graphs)
//	cfpq-bench -table 2 -max 1000    # Table 2, only graphs with ≤ 1000 triples
//	cfpq-bench -ablation             # the ablations only
//	cfpq-bench -json BENCH_paper.json
//
// Ctrl-C (or SIGTERM) stops a run between closure passes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cfpq/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "run only table 1 or 2 (0 = both)")
	ablation := flag.Bool("ablation", false, "run only the ablation studies")
	repeats := flag.Int("repeats", 3, "timed runs per cell; the text prints the minimum, -json records min/median/max")
	maxTriples := flag.Int("max", 0, "skip graphs with more paper-triples in the tables (0 = no limit)")
	jsonPath := flag.String("json", "", "also write everything that ran, with its environment, as JSON to this file")
	verbose := flag.Bool("v", false, "print per-cell progress")
	flag.Parse()
	if *table < 0 || *table > 2 || *repeats < 1 {
		fmt.Fprintf(os.Stderr, "cfpq-bench: -table must be 1 or 2 and -repeats at least 1\n")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report := bench.Report{Environment: bench.CurrentEnvironment(*repeats)}
	add := func(tables ...bench.Table) {
		bench.Format(os.Stdout, tables...)
		report.Tables = append(report.Tables, tables...)
	}
	everything := *table == 0 && !*ablation
	for _, q := range []int{1, 2} {
		if !everything && *table != q {
			continue
		}
		cfg := bench.Config{Query: q, Repeats: *repeats, MaxTriples: *maxTriples}
		if *verbose {
			cfg.Log = os.Stderr
		}
		t, err := bench.RunTable(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		add(t)
	}
	if everything || *ablation {
		tables, err := bench.RunAblations(ctx, *repeats)
		if err != nil {
			fatal(err)
		}
		add(tables...)
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, report); err != nil {
			fatal(err)
		}
	}
}

func writeReport(path string, report bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteJSON(f, report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cfpq-bench: %v\n", err)
	os.Exit(1)
}
