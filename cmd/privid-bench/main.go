// Command privid-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	privid-bench                  # run everything at -scale 0.1
//	privid-bench -run table3      # one experiment
//	privid-bench -scale 1.0       # full paper scale (slow)
//
// Each experiment prints the same rows/series the paper reports plus a
// metric summary. Absolute values will differ (the substrate is a
// simulator); the shapes — who wins, by what factor — are the
// reproduction target.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"privid/internal/experiments"
)

func main() {
	var (
		run   = flag.String("run", "", "experiment id to run (default: all); one of table1,table2,table3,fig3,fig4,fig5,fig6,fig7,fig8,table6,ablation,soak")
		scale = flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale: 12h video, 365-day fleet)")
		seed  = flag.Int64("seed", 1, "deterministic seed")
		quiet = flag.Bool("q", false, "suppress experiment rows; print only metric summaries")
	)
	flag.Parse()

	cfg := experiments.Config{Scale: *scale, Seed: *seed, Out: os.Stdout}
	if *quiet {
		cfg.Out = nil
	}

	exps := experiments.All()
	if *run != "" {
		e, ok := experiments.Get(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "privid-bench: unknown experiment %q\n", *run)
			os.Exit(1)
		}
		exps = []experiments.Experiment{e}
	}

	failed := 0
	for _, e := range exps {
		fmt.Printf("==== %s: %s\n", e.ID, e.Title)
		fmt.Printf("     paper: %s\n", e.Paper)
		start := time.Now()
		sum, err := e.Run(cfg)
		if err != nil {
			fmt.Printf("     ERROR: %v\n", err)
			failed++
			continue
		}
		fmt.Printf("     metrics (%.1fs):", time.Since(start).Seconds())
		for _, k := range sum.SortedKeys() {
			fmt.Printf(" %s=%.4g", k, sum.Metrics[k])
		}
		fmt.Printf("\n\n")
	}
	if failed > 0 {
		os.Exit(1)
	}
}
