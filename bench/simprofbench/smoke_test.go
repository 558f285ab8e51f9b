package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload at about 1/50 size against a
// real simprofd built from this tree, untraced and traced, and requires
// every correctness check to pass and every published metric to be
// measured.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds simprofd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "simprofd")
	build := exec.Command("go", "build", "-o", bin, "simprof/cmd/simprofd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build simprofd: %v\n%s", err, out)
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && (w == "offline-1m" || w == "serve-cold") {
				continue // the traced paths are the same code as their siblings'
			}
			rc := runConfig{workload: w, seed: 3, seconds: time.Second, traced: traced, smoke: true, simprofd: bin}
			var err error
			if rc.runDir, err = os.MkdirTemp(dir, "run-"); err != nil {
				t.Fatal(err)
			}
			res, err := execute(rc)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %q failed: %s", w, traced, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := len(endToEnd)
			if traced {
				want = len(perLayer)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), want)
			}
		}
	}
}
