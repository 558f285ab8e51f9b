package cluster

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// workerSweep is the cross-cutting determinism contract of the parallel
// rewrite: every worker count must reproduce the serial baseline
// bit-for-bit (same floats, same assignments, same chosen k).
var workerSweep = []int{1, 2, 8}

func TestKMeansBitForBitAcrossWorkers(t *testing.T) {
	pts := benchPoints(400, 24, 5, 17)
	base, _, err := kMeansRows(pts, 5, 1, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep[1:] {
		got, _, err := kMeansRows(pts, 5, w, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: k-means result diverged from serial baseline\nserial: inertia=%.17g sizes=%v\ngot:    inertia=%.17g sizes=%v",
				w, base.Inertia, base.Sizes, got.Inertia, got.Sizes)
		}
	}
}

func TestChooseKBitForBitAcrossWorkers(t *testing.T) {
	pts := matrix.FromRows(benchPoints(600, 32, 4, 23))
	base, err := ChooseKDense(pts, ChooseKOptions{MaxK: 12, KMeans: Options{Seed: 5}, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerSweep[1:] {
		got, err := ChooseKDense(pts, ChooseKOptions{MaxK: 12, KMeans: Options{Seed: 5}, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d: KSelection diverged from serial baseline\nserial: k=%d scores=%v\ngot:    k=%d scores=%v",
				w, base.K, base.Scores, got.K, got.Scores)
		}
	}
}

func TestSilhouettesBitForBitAcrossWorkers(t *testing.T) {
	rows := benchPoints(500, 16, 4, 29)
	tab := newRowTable(parallel.New(1), matrix.FromRows(rows))
	res, _, err := kMeansRows(rows, 4, 1, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assign := rowAssign(tab, res.Assign)
	exactBase := silhouette(parallel.New(1), rows, res.Assign, 4)
	simpBase := simplifiedSilhouetteDense(parallel.New(1), tab, res.Centers, assign)
	for _, w := range workerSweep[1:] {
		eng := parallel.New(w)
		if got := silhouette(eng, rows, res.Assign, 4); got != exactBase {
			t.Fatalf("workers=%d: exact silhouette %.17g != serial %.17g", w, got, exactBase)
		}
		if got := simplifiedSilhouetteDense(eng, tab, res.Centers, assign); got != simpBase {
			t.Fatalf("workers=%d: simplified silhouette %.17g != serial %.17g", w, got, simpBase)
		}
	}
}

// TestChooseKStableUnderGOMAXPROCS pins the output against the actual
// parallelism of the runtime, not just the engine's worker cap: the
// chunk grid and merge order must make scheduling invisible.
func TestChooseKStableUnderGOMAXPROCS(t *testing.T) {
	pts := matrix.FromRows(benchPoints(400, 16, 3, 31))
	opts := ChooseKOptions{MaxK: 8, KMeans: Options{Seed: 13}, Workers: 8}
	base, err := ChooseKDense(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := ChooseKDense(pts, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d: KSelection diverged (k=%d vs %d)", procs, got.K, base.K)
		}
	}
}

// TestKMeansWorkerInvarianceProperty fuzzes the contract over random
// small inputs: any clustering problem, any worker count, identical
// result structs.
func TestKMeansWorkerInvarianceProperty(t *testing.T) {
	prop := func(seed uint64, kRaw, wRaw uint8) bool {
		n := 30 + int(seed%200)
		k := int(kRaw%6) + 1
		workers := int(wRaw%7) + 2
		pts := benchPoints(n, 8, 3, seed)
		a, _, errA := kMeansRows(pts, k, 1, Options{Seed: seed})
		b, _, errB := kMeansRows(pts, k, workers, Options{Seed: seed})
		if (errA == nil) != (errB == nil) {
			return false
		}
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAssignPartialSumMergeProperty is the kernel-level version of the
// chunked-merge property on the oracle's assignment pass: the fused pass (per-chunk sizes,
// centroid sums and inertia merged in chunk index order) must agree
// exactly with a plain serial accumulator on the integer outputs, and
// bit-for-bit with its own workers=1 execution on the float outputs.
func TestAssignPartialSumMergeProperty(t *testing.T) {
	prop := func(seed uint64, wRaw uint8) bool {
		n := 50 + int(seed%400)
		workers := int(wRaw%7) + 2
		pts := benchPoints(n, 6, 4, seed)
		rng := stats.NewRNG(seed)
		centers := make([][]float64, 4)
		for c := range centers {
			centers[c] = make([]float64, 6)
			for j := range centers[c] {
				centers[c][j] = rng.Float64() * 20
			}
		}
		run := func(w int) ([]int, []int, float64) {
			assign := make([]int, n)
			sizes := make([]int, 4)
			sc := new(lloydScratch)
			sc.ensure(n, n, 4, 6)
			inertia := assignPoints(parallel.New(w), pts, centers, assign, sizes, sc, true, new(atomic.Int64))
			return assign, sizes, inertia
		}
		assign1, sizes1, in1 := run(1)
		assignW, sizesW, inW := run(workers)
		// Serial reference accumulator for the integer outputs.
		refSizes := make([]int, 4)
		var dc distCount
		for _, p := range pts {
			c, _ := nearestCenter(p, centers, &dc)
			refSizes[c]++
		}
		return reflect.DeepEqual(assign1, assignW) &&
			reflect.DeepEqual(sizes1, sizesW) &&
			reflect.DeepEqual(sizes1, refSizes) &&
			in1 == inW
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBestByKMatchesIndexScan: the sweep's merge keeps, at every k,
// exactly the restart bestRestart's strict-< scan in restart index order
// picks, whatever order the restarts arrive in — on tie-heavy inertias,
// +Inf and NaN included.
func TestBestByKMatchesIndexScan(t *testing.T) {
	values := []float64{0, 1, 1, 2, math.Inf(1), math.NaN()}
	prop := func(seed uint64, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		restarts := 1 + int(nRaw%6)
		runs := make([]Result, restarts)
		for r := range runs {
			// K tags the restart; 0 is left for "none picked".
			runs[r] = Result{Inertia: values[rng.IntN(len(values))], K: r + 1}
		}
		b := newBestByK(2)
		for _, r := range rng.Perm(restarts) {
			b.keep(2, r, runs[r])
		}
		return b.results[2].K == bestRestart(runs).K
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
