package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"simprof/internal/matrix"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// kMeansRows runs the production k-means on rows copied into a Dense,
// on an engine of workers (0 = GOMAXPROCS), the way phase formation
// reaches it; the result's Assign is expanded to the points.
func kMeansRows(rows [][]float64, k, workers int, opts Options) (Result, distStats, error) {
	eng := parallel.New(workers)
	tab := newRowTable(eng, matrix.FromRows(rows))
	res, st, err := kMeansDenseWith(eng, tab, k, opts)
	if err == nil {
		res.Assign = tab.pointAssign(eng, res.Assign)
	}
	return res, st, err
}

// rowAssign folds a per-point assignment onto the rows of tab (the
// points of one row share their cluster).
func rowAssign(tab *rowTable, assign []int) []int {
	out := make([]int, tab.distinct())
	for i, r := range tab.rowOf {
		out[r] = assign[i]
	}
	return out
}

// threeBlobs returns well-separated clusters around (0,0), (10,0), (0,10).
func threeBlobs(perBlob int, seed uint64) ([][]float64, []int) {
	rng := stats.NewRNG(seed)
	centers := [][2]float64{{0, 0}, {10, 0}, {0, 10}}
	var pts [][]float64
	var truth []int
	for c, ctr := range centers {
		for i := 0; i < perBlob; i++ {
			pts = append(pts, []float64{ctr[0] + rng.NormFloat64()*0.5, ctr[1] + rng.NormFloat64()*0.5})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	pts, truth := threeBlobs(40, 3)
	res, _, err := kMeansRows(pts, 3, 0, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Clustering should be a relabeling of the truth: same-blob points
	// share an assignment, different blobs differ.
	label := map[int]int{}
	for i, c := range res.Assign {
		if prev, ok := label[truth[i]]; ok {
			if prev != c {
				t.Fatalf("blob %d split across clusters", truth[i])
			}
		} else {
			label[truth[i]] = c
		}
	}
	if len(label) != 3 {
		t.Fatalf("blobs merged: %v", label)
	}
}

func TestKMeansInvariants(t *testing.T) {
	pts, _ := threeBlobs(30, 11)
	res, _, err := kMeansRows(pts, 4, 0, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || len(res.Centers) != 4 || len(res.Assign) != len(pts) {
		t.Fatalf("shape wrong: %+v", res)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(pts) {
		t.Fatalf("sizes sum %d want %d", total, len(pts))
	}
	// Every point is assigned to its nearest center.
	var dc distCount
	for i, p := range pts {
		c, _ := nearestCenter(p, res.Centers, &dc)
		if c != res.Assign[i] {
			t.Fatalf("point %d assigned %d but nearest is %d", i, res.Assign[i], c)
		}
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	if _, _, err := kMeansRows(nil, 3, 0, Options{}); err == nil {
		t.Fatal("no points should error")
	}
	if _, _, err := kMeansRows([][]float64{{1}}, 0, 0, Options{}); err == nil {
		t.Fatal("k=0 should error")
	}
	// k > n clamps.
	res, _, err := kMeansRows([][]float64{{1}, {2}}, 5, 0, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 2 {
		t.Fatalf("K=%d want clamp to 2", res.K)
	}
	// Identical points: inertia 0, single effective center value.
	same := [][]float64{{3, 3}, {3, 3}, {3, 3}, {3, 3}}
	res, _, err = kMeansRows(same, 2, 0, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia=%v", res.Inertia)
	}
}

func TestKMeansDeterministic(t *testing.T) {
	pts, _ := threeBlobs(25, 7)
	a, _, _ := kMeansRows(pts, 3, 0, Options{Seed: 99})
	b, _, _ := kMeansRows(pts, 3, 0, Options{Seed: 99})
	if a.Inertia != b.Inertia {
		t.Fatal("same seed, different inertia")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed, different assignment")
		}
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	pts, _ := threeBlobs(20, 13)
	res, _, _ := kMeansRows(pts, 3, 0, Options{Seed: 2})
	eng := parallel.Default()
	sep := silhouette(eng, pts, res.Assign, 3)
	if sep < 0.7 {
		t.Fatalf("separated blobs silhouette=%v want >0.7", sep)
	}
	simp := simplifiedSilhouetteRows(eng, pts, res.Centers, res.Assign)
	if math.Abs(simp-sep) > 0.15 {
		t.Fatalf("simplified %v far from exact %v", simp, sep)
	}
	// Random labels on one blob: silhouette near or below 0.
	rng := stats.NewRNG(4)
	var blob [][]float64
	for i := 0; i < 60; i++ {
		blob = append(blob, []float64{rng.NormFloat64(), rng.NormFloat64()})
	}
	assign := make([]int, len(blob))
	for i := range assign {
		assign[i] = rng.IntN(3)
	}
	if s := silhouette(eng, blob, assign, 3); s > 0.2 {
		t.Fatalf("random labels silhouette=%v want ≤0.2", s)
	}
}

func TestSilhouetteBounds(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := stats.NewRNG(seed)
		n := 20 + int(seed%30)
		k := int(kRaw%4) + 2
		pts := make([][]float64, n)
		assign := make([]int, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64() * 10, rng.Float64() * 10}
			assign[i] = rng.IntN(k)
		}
		s := silhouette(parallel.Default(), pts, assign, k)
		return s >= -1.0000001 && s <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	eng := parallel.Default()
	if s := silhouette(eng, nil, nil, 3); s != 0 {
		t.Fatalf("empty silhouette=%v", s)
	}
	if s := silhouette(eng, [][]float64{{1}, {2}}, []int{0, 0}, 1); s != 0 {
		t.Fatalf("k=1 silhouette=%v", s)
	}
	// All identical points → 0 contributions.
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	if s := silhouette(eng, pts, []int{0, 0, 1, 1}, 2); s != 0 {
		t.Fatalf("identical points silhouette=%v", s)
	}
}

func TestChooseKFindsThreeBlobs(t *testing.T) {
	pts, _ := threeBlobs(30, 21)
	sel, err := ChooseKDense(matrix.FromRows(pts), ChooseKOptions{MaxK: 8, KMeans: Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 3 {
		t.Fatalf("ChooseK=%d want 3 (scores=%v)", sel.K, sel.Scores)
	}
	if sel.Best.K != 3 || len(sel.Best.Assign) != len(pts) {
		t.Fatalf("Best result inconsistent: %+v", sel.Best)
	}
}

func TestChooseKNoStructureGivesOne(t *testing.T) {
	// Identical points: no structure at all → k=1 (grep_sp behaviour).
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{5, 5, 5}
	}
	sel, err := ChooseKDense(matrix.FromRows(pts), ChooseKOptions{MaxK: 6, KMeans: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 {
		t.Fatalf("identical points ChooseK=%d want 1", sel.K)
	}
}

func TestChooseKPrefersSmallestWithinThreshold(t *testing.T) {
	// Two blobs: k=2 is best; any k' > 2 within 90% must not be chosen
	// because 2 comes first.
	rng := stats.NewRNG(31)
	var pts [][]float64
	for i := 0; i < 40; i++ {
		pts = append(pts, []float64{rng.NormFloat64() * 0.3, 0})
		pts = append(pts, []float64{20 + rng.NormFloat64()*0.3, 0})
	}
	sel, err := ChooseKDense(matrix.FromRows(pts), ChooseKOptions{MaxK: 10, KMeans: Options{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 2 {
		t.Fatalf("ChooseK=%d want 2", sel.K)
	}
}

// pollCtx is a live context whose Err turns to context.Canceled after
// a set number of polls; left < 0 never cancels. It counts every poll.
type pollCtx struct {
	context.Context
	left  int64
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.left >= 0 && n > c.left {
		return context.Canceled
	}
	return nil
}

// TestChooseKCanceledMidSweep cancels a sweep part-way through its
// restart streams and again part-way through its silhouette loop: each
// time ChooseKDense must return context.Canceled and a zero
// KSelection, and leave no goroutine behind.
func TestChooseKCanceledMidSweep(t *testing.T) {
	pts := matrix.FromRows(benchPoints(600, 12, 4, 29))
	tab := newRowTable(parallel.New(1), pts)
	before := runtime.NumGoroutine()
	for _, w := range []int{1, 2} {
		opts := ChooseKOptions{MaxK: 10, KMeans: Options{Seed: 4}, Workers: w}
		// Polls of the restart streams alone, then of the whole sweep.
		streams := &pollCtx{Context: context.Background(), left: -1}
		sweepRestarts(parallel.New(w).WithContext(streams), tab,
			sweepMaxK(pts.Rows(), opts.MaxK), opts.KMeans, func(int, int, Result) {})
		whole := &pollCtx{Context: context.Background(), left: -1}
		opts.Ctx = whole
		if sel, err := ChooseKDense(pts, opts); err != nil || sel.K < 2 {
			t.Fatalf("workers=%d: uncanceled sweep k=%d err=%v, want k ≥ 2 (no k = 1 fallback)", w, sel.K, err)
		}
		s, total := streams.polls.Load(), whole.polls.Load()
		for _, at := range []struct {
			name string
			left int64
		}{{"streams", s / 2}, {"silhouettes", s + (total-s)/2}} {
			opts.Ctx = &pollCtx{Context: context.Background(), left: at.left}
			sel, err := ChooseKDense(pts, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d canceled in %s: err = %v, want context.Canceled", w, at.name, err)
			}
			if !reflect.DeepEqual(sel, KSelection{}) {
				t.Fatalf("workers=%d canceled in %s: returned a partial selection k=%d", w, at.name, sel.K)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines grew from %d to %d after canceled sweeps", before, n)
	}
}

// TestChooseKMaxKOne: an explicit bound of 1 is honoured — the three
// blobs still separate, but the selection is the single cluster. The
// n/20 cap keeps its floor of 2 for bounds of 2 or more.
func TestChooseKMaxKOne(t *testing.T) {
	pts, _ := threeBlobs(30, 21)
	sel, err := ChooseKDense(matrix.FromRows(pts), ChooseKOptions{MaxK: 1, KMeans: Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if sel.K != 1 || sel.Best.K != 1 || len(sel.Scores) != 1 || len(sel.Best.Assign) != len(pts) {
		t.Fatalf("MaxK 1 chose K=%d (best K=%d, scores %v)", sel.K, sel.Best.K, sel.Scores)
	}
	for _, c := range []struct{ n, maxK, want int }{
		{90, 1, 1}, {1, 1, 1}, {1, 20, 1}, {3, 2, 2}, {30, 20, 2}, {90, 8, 4}, {400, 3, 3}, {400, 20, 20},
	} {
		if got := sweepMaxK(c.n, c.maxK); got != c.want {
			t.Errorf("sweepMaxK(%d, %d) = %d, want %d", c.n, c.maxK, got, c.want)
		}
	}
}

func TestChooseKEmpty(t *testing.T) {
	if _, err := ChooseKDense(matrix.FromRows(nil), ChooseKOptions{}); err == nil {
		t.Fatal("empty ChooseK should error")
	}
}

func TestNearestCenter(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 10}}
	var dc distCount
	c, d := nearestCenter([]float64{1, 1}, centers, &dc)
	if c != 0 || d != 2 || dc != 2 {
		t.Fatalf("nearestCenter=(%d,%v) after %d SqDist calls", c, d, dc)
	}
}
