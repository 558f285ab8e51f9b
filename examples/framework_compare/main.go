// framework_compare runs all six Table I benchmarks on both simulated
// engines and compares their phase structure (Fig. 9), phase types
// (Fig. 10) and the accuracy of 20-point SimProf sampling — the
// Hadoop-vs-Spark analysis threaded through the paper's evaluation.
//
//	go run ./examples/framework_compare
package main

import (
	"fmt"
	"log"
	"os"

	"simprof/internal/core"
	"simprof/internal/model"
	"simprof/internal/report"
	"simprof/internal/workloads"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.Seed = 42
	// Scaled-down inputs so this example runs in a few seconds.
	opts := workloads.Options{
		TextBytes: 96 << 20, SortBytes: 128 << 20,
		GraphScale: 17, SparkIterations: 6, HadoopIterations: 2,
	}.WithDefaults()

	t := report.NewTable("Hadoop vs Spark across the Table I suite",
		"Workload", "Units", "Phases", "map", "reduce", "sort", "io", "SimProf err")
	for _, fw := range []string{"hadoop", "spark"} {
		for _, bench := range workloads.Benchmarks() {
			input, err := workloads.DefaultInput(bench, opts)
			if err != nil {
				log.Fatal(err)
			}
			tr, err := core.ProfileWorkload(bench, fw, input, opts, cfg)
			if err != nil {
				log.Fatal(err)
			}
			ph, err := core.FormPhases(tr, cfg)
			if err != nil {
				log.Fatal(err)
			}
			sp, err := core.SelectPoints(ph, 20, cfg)
			if err != nil {
				log.Fatal(err)
			}
			dist := ph.TypeDistribution()
			t.RowS(tr.Name(),
				fmt.Sprint(len(tr.Units)),
				fmt.Sprint(ph.K),
				pct(dist[model.KindMap]), pct(dist[model.KindReduce]),
				pct(dist[model.KindSort]), pct(dist[model.KindIO]),
				fmt.Sprintf("%.2f%%", 100*sp.Err(tr)))
		}
	}
	t.Render(os.Stdout)
	fmt.Println("Expected shape (paper §IV-D): sort-dominated phases appear only on Hadoop")
	fmt.Println("(map-side spill sort); Hadoop spends more time in IO; Spark's grep runs as")
	fmt.Println("a single filter phase.")
}

func pct(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
