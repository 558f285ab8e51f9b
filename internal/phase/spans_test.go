package phase

import (
	"slices"
	"testing"
	"time"

	"simprof/internal/obs"
	"simprof/internal/synth"
)

// TestFormSpansCoverForm: Form runs no unnamed stage. The child spans
// of phase.form sum to [0.9, 1] × its duration, the same ledger rule
// the simprofd access log keeps (TestAccessLogStageLedger), and
// phase.cluster holds ChooseKDense's four stages.
func TestFormSpansCoverForm(t *testing.T) {
	tr, err := synth.DefaultTrace(5_000, 5).Generate()
	if err != nil {
		t.Fatal(err)
	}
	was := obs.Enabled()
	obs.Enable()
	defer func() {
		if !was {
			obs.Disable()
		}
	}()
	root := obs.StartRun("form-spans")
	if _, err := Form(tr, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	root.End()

	var form *obs.Span
	root.Walk(func(sp *obs.Span, _ int) {
		if sp.Name == "phase.form" {
			form = sp
		}
	})
	if form == nil {
		t.Fatal("no phase.form span")
	}
	want := []string{"phase.scan", "phase.vectorize", "phase.fregression",
		"phase.project", "phase.cluster", "phase.assemble"}
	if got := spanNames(form.Children); !slices.Equal(got, want) {
		t.Fatalf("phase.form children %v, want %v", got, want)
	}
	var sum time.Duration
	for _, c := range form.Children {
		sum += c.Duration()
	}
	t.Logf("phase.form %v, children %v (%.1f%%)", form.Duration(), sum,
		100*float64(sum)/float64(form.Duration()))
	if sum > form.Duration() || float64(sum) < 0.9*float64(form.Duration()) {
		t.Fatalf("phase.form children sum to %v, want within [0.9, 1] × %v", sum, form.Duration())
	}
	cluster := form.Children[4]
	wantCluster := []string{"cluster.table", "cluster.sweep", "cluster.silhouette", "cluster.expand"}
	if got := spanNames(cluster.Children); !slices.Equal(got, wantCluster) {
		t.Fatalf("phase.cluster children %v, want %v", got, wantCluster)
	}
}

func spanNames(spans []*obs.Span) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}
