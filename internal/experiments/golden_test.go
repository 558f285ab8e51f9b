package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"simprof/internal/obs"
	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/synth"
)

// reseedSpec is a duplicate-heavy synthetic trace: one two-frame
// snapshot per unit leaves 8 distinct method-count rows among 1200
// units, fewer than the 20 clusters the k sweep reaches, so the seeding
// picks duplicate centers and Lloyd re-seeds the clusters they leave
// empty.
var reseedSpec = synth.TraceSpec{
	Benchmark: "synth", Framework: "spark", Input: "reseed",
	Units: 1200, Methods: 9, Phases: 4, Depth: 2, Snapshots: 1,
	UnitInstr: 10_000_000, Seed: 3,
}

// formAnswer is one line of testdata/form_answers.golden: the chosen k,
// the silhouette sweep's bits, hashes of the assignment and of the
// centers' bits, and the bits of a SimProf(n = 20, seed = 1) estimate
// and its SE.
func formAnswer(name string, ph *phase.Phases) (string, error) {
	sp, err := sampling.SimProf(ph, 20, 1)
	if err != nil {
		return "", err
	}
	scores := make([]string, len(ph.KScores))
	for i, s := range ph.KScores {
		scores[i] = fmt.Sprintf("%016x", math.Float64bits(s))
	}
	h := sha256.New()
	for _, a := range ph.Assign {
		binary.Write(h, binary.LittleEndian, int64(a))
	}
	assign := h.Sum(nil)
	h.Reset()
	for _, c := range ph.Centers {
		for _, v := range c {
			binary.Write(h, binary.LittleEndian, math.Float64bits(v))
		}
	}
	return fmt.Sprintf("%s k=%d kscores=%s assign=%x centers=%x est=%016x se=%016x",
		name, ph.K, strings.Join(scores, ","), assign, h.Sum(nil),
		math.Float64bits(sp.EstCPI), math.Float64bits(sp.SE)), nil
}

// TestFormAnswersGolden pins the answers phase formation and SimProf
// give on the 12 Quick Table I traces and on a trace whose k sweep
// re-seeds empty clusters, bit for bit. The pruned = oracle suites in
// internal/cluster cannot see a change made to the kernel and its
// oracle alike; this record can. Regenerate it with UPDATE_GOLDEN=1 only
// for a change meant to move the answers.
func TestFormAnswersGolden(t *testing.T) {
	if err := testSuite.Preload(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, w := range testSuite.Workloads() {
		ph, err := testSuite.Phases(w)
		if err != nil {
			t.Fatal(err)
		}
		line, err := formAnswer(w, ph)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	tr, err := reseedSpec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	reseeds := obs.Default().Counter("cluster.empty_reseeds", "")
	obs.Enable()
	before := reseeds.Value()
	ph, err := phase.Form(tr, phase.Options{Seed: 11})
	after := reseeds.Value()
	obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("the duplicate-heavy trace re-seeded no empty cluster")
	}
	line, err := formAnswer("synth_reseed", ph)
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, line)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "form_answers.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		t.Fatalf("golden has %d lines, got %d", len(wl), len(gl))
	}
	for i := range wl {
		if wl[i] != gl[i] {
			t.Errorf("answer moved:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
