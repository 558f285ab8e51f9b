package cluster

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"testing/quick"

	"simprof/internal/matrix"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
)

// The bound-pruned Lloyd kernel's contract is bit-for-bit equivalence
// with the naive oracle kernel (oracle_test.go): same centers, same
// assignments, same inertia floats, for every worker count, telemetry
// on or off. These tests are the enforcement (scripts/check.sh runs
// them as the kernel-equivalence stage with -count=2).

// runBoth runs the oracle and the production kernel on one problem, and
// holds the production kernel's naive-equivalent work count
// (distStats.equivalent, behind cluster.distances_pruned) to the SqDist
// calls the oracle actually made.
func runBoth(t *testing.T, pts [][]float64, k, workers int, opts Options) (naive, pruned Result) {
	t.Helper()
	var calls atomic.Int64
	naive = oracleKMeans(parallel.New(workers), pts, k, opts, &calls)
	pruned, st, err := kMeansRows(pts, k, workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.equivalent != calls.Load() {
		t.Fatalf("equivalent=%d, oracle made %d SqDist calls", st.equivalent, calls.Load())
	}
	return naive, pruned
}

// cycled returns n points cycling through `distinct` values: any k above
// `distinct` leaves clusters empty and forces re-seeds.
func cycled(n, distinct int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{float64(i % distinct), 1}
	}
	return pts
}

func TestPrunedMatchesNaiveBitForBit(t *testing.T) {
	for _, tc := range []struct {
		name string
		pts  [][]float64
		k    int
		seed uint64
	}{
		{"blobs", benchPoints(400, 24, 5, 17), 5, 9},
		{"more-clusters-than-structure", benchPoints(120, 8, 2, 3), 7, 4},
		{"k1", benchPoints(100, 12, 3, 5), 1, 2},
		{"high-dim", benchPoints(150, 64, 4, 11), 4, 8},
		{"k-equals-n-ish", benchPoints(24, 4, 3, 13), 20, 6},
		{"duplicates", cycled(40, 3), 6, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range workerSweep {
				naive, pruned := runBoth(t, tc.pts, tc.k, w, Options{Seed: tc.seed})
				if !reflect.DeepEqual(naive, pruned) {
					t.Fatalf("workers=%d: pruned diverged from naive\nnaive:  inertia=%.17g sizes=%v\npruned: inertia=%.17g sizes=%v",
						w, naive.Inertia, naive.Sizes, pruned.Inertia, pruned.Sizes)
				}
			}
		})
	}
}

// TestPrunedMatchesNaiveProperty fuzzes the equivalence over random
// clustering problems: random sizes, dimensions, cluster counts, k and
// worker counts — including adversarial duplicate points (tie-heavy
// inputs are where a sloppy pruning rule would diverge first).
func TestPrunedMatchesNaiveProperty(t *testing.T) {
	prop := func(seed uint64, kRaw, wRaw, dRaw uint8) bool {
		n := 30 + int(seed%300)
		d := 2 + int(dRaw%12)
		k := int(kRaw%8) + 1
		workers := []int{1, 2, 8}[int(wRaw)%3]
		pts := benchPoints(n, d, 3, seed)
		// Duplicate a slice of points to force exact distance ties.
		for i := 0; i < n/8; i++ {
			copy(pts[n-1-i], pts[i])
		}
		opts := Options{Seed: seed}
		var calls atomic.Int64
		naive := oracleKMeans(parallel.New(workers), pts, k, opts, &calls)
		pruned, st, err := kMeansRows(pts, k, workers, opts)
		return err == nil && reflect.DeepEqual(naive, pruned) && st.equivalent == calls.Load()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPrunedMatchesNaiveWithTelemetry pins the telemetry-independence
// half of the acceptance contract: enabling obs must not perturb a
// single float of either kernel.
func TestPrunedMatchesNaiveWithTelemetry(t *testing.T) {
	pts := benchPoints(300, 16, 4, 19)
	offNaive, offPruned := runBoth(t, pts, 4, 0, Options{Seed: 7})
	obs.Enable()
	defer obs.Disable()
	onNaive, onPruned := runBoth(t, pts, 4, 0, Options{Seed: 7})
	if !reflect.DeepEqual(offNaive, onNaive) {
		t.Fatal("telemetry changed the naive kernel result")
	}
	if !reflect.DeepEqual(offPruned, onPruned) {
		t.Fatal("telemetry changed the pruned kernel result")
	}
	if !reflect.DeepEqual(onNaive, onPruned) {
		t.Fatal("pruned diverged from naive with telemetry enabled")
	}
}

// TestChooseKPrunedMatchesNaive holds every step of the k sweep to the
// oracle — each k's clustering, run on its own from the base seed, and
// its simplified-silhouette score — and the selection ChooseKDense
// returns to the one selectK makes from the oracle's per-k outcomes, on
// clustered data and on data with no structure (the k=1 answer). The
// sweep's naive-equivalent distance count must be the oracle's summed
// SqDist calls over those independent runs.
func TestChooseKPrunedMatchesNaive(t *testing.T) {
	for _, rows := range [][][]float64{benchPoints(600, 32, 4, 23), cycled(60, 1)} {
		chooseKMatchesOracle(t, rows, 10)
	}
}

// chooseKMatchesOracle is TestChooseKPrunedMatchesNaive's check of one
// input, swept to at most maxK, at every worker count.
func chooseKMatchesOracle(t *testing.T, rows [][]float64, maxK int) {
	t.Helper()
	pts := matrix.FromRows(rows)
	tab := newRowTable(parallel.New(1), pts)
	for _, w := range workerSweep {
		o := ChooseKOptions{MaxK: maxK, KMeans: Options{Seed: 5}, Workers: w}.withDefaults()
		sel, err := ChooseKDense(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		eng := parallel.New(w)
		scores := make([]float64, len(sel.Scores))
		results := make([]Result, len(scores)+1)
		var calls atomic.Int64
		for k := 2; k <= len(scores); k++ {
			want := oracleKMeans(eng, rows, k, o.KMeans, &calls)
			got, _, err := kMeansDenseWith(eng, tab, k, o.KMeans)
			if err != nil {
				t.Fatal(err)
			}
			s := simplifiedSilhouetteDense(eng, tab, got.Centers, got.Assign)
			got.Assign = tab.pointAssign(eng, got.Assign)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d k=%d: clustering diverged from the oracle", w, k)
			}
			results[k] = want
			scores[k-1] = simplifiedSilhouetteRows(eng, rows, want.Centers, want.Assign)
			if s != scores[k-1] {
				t.Fatalf("workers=%d k=%d: score %.17g, oracle %.17g", w, k, s, scores[k-1])
			}
		}
		if st := sweepRestarts(eng, tab, len(scores), o.KMeans, func(int, int, Result) {}); st.equivalent != calls.Load() {
			t.Fatalf("workers=%d: sweep equivalent=%d, oracle made %d SqDist calls",
				w, st.equivalent, calls.Load())
		}
		want, _ := selectK(scores, results, o, func() (Result, error) {
			return oracleKMeans(eng, rows, 1, o.KMeans, new(atomic.Int64)), nil
		})
		if !reflect.DeepEqual(want, sel) {
			t.Fatalf("workers=%d: selection k=%d scores=%v, oracle k=%d scores=%v",
				w, sel.K, sel.Scores, want.K, want.Scores)
		}
	}
}

// TestChooseKDistinctRowsMatchNaive is the same check on inputs whose
// points repeat a few distinct vectors, where the kernels work per
// distinct row and every reduction reads the rows back in point order:
// integer counts from a pool of 40 vectors spread over more than four
// point chunks; a pool smaller than the largest k, so the seeding picks
// duplicates and Lloyd re-seeds empty clusters; rows that differ only
// in the sign of a zero; and one vector repeated throughout.
func TestChooseKDistinctRowsMatchNaive(t *testing.T) {
	signed := countPoints(3*pointChunk, 6, 12, 17)
	rng := stats.NewRNG(17)
	for _, p := range signed {
		for j, v := range p {
			if v == 0 && rng.IntN(2) == 0 {
				p[j] = math.Copysign(0, -1)
			}
		}
	}
	same := make([][]float64, 4*pointChunk+7)
	for i := range same {
		same[i] = []float64{3, 0, 1, 0, 2, 5}
	}
	for _, tc := range []struct {
		name    string
		rows    [][]float64
		reseeds bool // the sweep must re-seed an empty cluster
	}{
		{"count-pool", countPoints(4*pointChunk+300, 6, 40, 7), false},
		{"pool-below-maxk", countPoints(600, 5, 4, 9), true},
		{"signed-zeros", signed, false},
		{"all-identical", same, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs.Enable()
			defer obs.Disable()
			before := obsEmptyReseeds.Value()
			chooseKMatchesOracle(t, tc.rows, 10)
			if tc.reseeds && obsEmptyReseeds.Value() == before {
				t.Fatal("no empty cluster was re-seeded")
			}
		})
	}
	// The signed zeros really are separate rows.
	unsigned := make([][]float64, len(signed))
	for i, p := range signed {
		unsigned[i] = make([]float64, len(p))
		for j, v := range p {
			unsigned[i][j] = v + 0 // −0 + 0 = +0
		}
	}
	eng := parallel.New(1)
	if a, b := newRowTable(eng, matrix.FromRows(signed)).distinct(), newRowTable(eng, matrix.FromRows(unsigned)).distinct(); a <= b {
		t.Fatalf("signed zeros gave %d rows, unsigned %d", a, b)
	}
}

// TestSweepPrefixMatchesIndependentSeeding pins the prefix property the
// k sweep rests on: restart stream r's clustering at every k is bit for
// bit restart r of an independent k run from the base seed, the per-k
// pick is kMeansDenseWith(k, base seed), and the sweep's
// naive-equivalent count is the independent runs' sum. Cases: clustered
// data; duplicate-heavy data (duplicate picks, touch-up epochs,
// empty-cluster re-seeds); an n the small-population k cap applies to;
// and k clamped to n. Each runs at every worker count, first on
// whatever the scratch pools hold, then again after a differently sized
// sweep has left its buffers in them.
func TestSweepPrefixMatchesIndependentSeeding(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows [][]float64
		maxK int // largest k the sweep runs
		ks   int // largest k compared; beyond maxK the k = maxK = n run
	}{
		{"blobs", benchPoints(500, 16, 5, 41), sweepMaxK(500, 20), sweepMaxK(500, 20)},
		{"cycled", cycled(400, 3), sweepMaxK(400, 20), sweepMaxK(400, 20)},
		{"k-cap", benchPoints(150, 8, 4, 43), sweepMaxK(150, 20), sweepMaxK(150, 20)},
		{"k-clamped-to-n", benchPoints(9, 3, 2, 47), 9, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "k-cap" && tc.maxK != 7 {
				t.Fatalf("n=150 swept to k=%d, want the cap 150/20 = 7", tc.maxK)
			}
			pts := matrix.FromRows(tc.rows)
			tab := newRowTable(parallel.New(1), pts)
			opts := Options{Seed: 11}
			o := opts.withDefaults()
			for _, w := range workerSweep {
				eng := parallel.New(w)
				for _, pool := range []string{"as-is", "warm"} {
					if pool == "warm" {
						other := newRowTable(eng, matrix.FromRows(benchPoints(700, 24, 6, 3)))
						sweepRestarts(eng, other, 15, Options{Seed: 2}, func(int, int, Result) {})
					}
					byK := make([][]Result, tc.maxK+1)
					for k := range byK {
						byK[k] = make([]Result, o.Restarts)
					}
					st := sweepRestarts(eng, tab, tc.maxK, opts, func(k, r int, res Result) {
						byK[k][r] = res
					})
					var equivalent int64
					for k := 2; k <= tc.ks; k++ {
						got := byK[min(k, tc.maxK)]
						for r := range got {
							var rst distStats
							rng := stats.NewRNG(stats.SplitSeed(o.Seed, uint64(r)))
							want := lloydPruned(tab, min(k, pts.Rows()), rng, eng, &rst)
							if !reflect.DeepEqual(want, got[r]) {
								t.Fatalf("workers=%d pool=%s k=%d restart=%d: stream diverged from an independent run\nwant inertia=%.17g sizes=%v\ngot  inertia=%.17g sizes=%v",
									w, pool, k, r, want.Inertia, want.Sizes, got[r].Inertia, got[r].Sizes)
							}
							if k <= tc.maxK {
								equivalent += rst.equivalent
							}
						}
					}
					if st.equivalent != equivalent {
						t.Fatalf("workers=%d pool=%s: sweep equivalent=%d, independent runs %d", w, pool, st.equivalent, equivalent)
					}
				}
			}
		})
	}
}

// TestPruningEffectiveness asserts the kernel actually prunes: on
// clustered synthetic data most of the naive kernel's distance
// computations must be skipped, otherwise the bounds machinery is dead
// weight.
func TestPruningEffectiveness(t *testing.T) {
	eng := parallel.New(1)
	tab := newRowTable(eng, matrix.FromRows(benchPoints(2000, 24, 6, 31)))
	_, st, err := kMeansDenseWith(eng, tab, 6, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.equivalent == 0 || st.computed == 0 {
		t.Fatalf("missing distance accounting: %+v", st)
	}
	frac := float64(st.equivalent-st.computed) / float64(st.equivalent)
	if frac <= 0.5 {
		t.Fatalf("pruned only %.1f%% of %d distance computations, want >50%%",
			frac*100, st.equivalent)
	}
	t.Logf("pruned %.1f%% (%d of %d distance computations)",
		frac*100, st.equivalent-st.computed, st.equivalent)
}

// TestDrawWeightedMatchesLinear pins satellite semantics: the chunked
// weighted draw must return exactly the sequential scan's index for any
// weights and any u — including u at 0, at the total, and beyond it —
// with every point its own row, and with the points drawing their
// weights from a small pool of rows.
func TestDrawWeightedMatchesLinear(t *testing.T) {
	prop := func(seed uint64, uRaw uint16) bool {
		rng := stats.NewRNG(seed)
		n := 1 + int(seed%2000)
		rowOf := make([]int32, n)
		u := n
		if seed%2 == 1 {
			u = 1 + int(seed%50)
		}
		for i := range rowOf {
			rowOf[i] = int32(i)
			if u < n {
				rowOf[i] = int32(rng.IntN(u))
			}
		}
		w := make([]float64, u)
		for i := range w {
			switch rng.IntN(4) {
			case 0:
				w[i] = 0 // exact-zero weights stress the ≥ boundary
			case 1:
				w[i] = rng.Float64() * 1e-12
			default:
				w[i] = rng.Float64() * 100
			}
		}
		chunks := parallel.Chunks(n, pointChunk)
		partial := make([]float64, chunks)
		var total float64
		for c := 0; c < chunks; c++ {
			lo, hi := c*pointChunk, (c+1)*pointChunk
			if hi > n {
				hi = n
			}
			var sum float64
			for i := lo; i < hi; i++ {
				sum += w[rowOf[i]]
			}
			partial[c] = sum
			total += sum
		}
		if total == 0 {
			return true // the seeding draws uniformly in this case
		}
		x := float64(uRaw) / math.MaxUint16 * total * 1.001
		return drawWeighted(w, rowOf, partial, total, x) == drawLinear(w, rowOf, x)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedingPickSequencePreserved asserts the dense seeding consumes
// the RNG identically to the reference seeding and picks the same
// centers (satellite: same RNG consumption, same chosen indices).
func TestSeedingPickSequencePreserved(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		n := 40 + int(seed%400)
		k := int(kRaw%10) + 1
		rows := benchPoints(n, 6, 3, seed)
		// Duplicates create zero weights in the D² distribution.
		for i := 0; i < n/6; i++ {
			copy(rows[n-1-i], rows[i])
		}
		eng := parallel.New(1)
		tab := newRowTable(eng, matrix.FromRows(rows))
		rngA := stats.NewRNG(seed)
		refCenters := seedPlusPlus(rows, k, rngA, eng, new(atomic.Int64))
		rngB := stats.NewRNG(seed)
		var st distStats
		denseCenters := seedPlusPlusDense(tab, k, rngB, eng, &st, func(int, *matrix.Dense, *seedScratch) {})
		for c := range refCenters {
			if !reflect.DeepEqual(refCenters[c], denseCenters.Row(c)) {
				return false
			}
		}
		// Identical residual RNG state ⇒ identical consumption.
		return rngA.Uint64() == rngB.Uint64()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNearestSetMatchesNearestCenter pins the cached-norm classifier
// against the oracle's plain scan, including empty center sets.
func TestNearestSetMatchesNearestCenter(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		rng := stats.NewRNG(seed)
		k := int(kRaw % 8) // 0 centers allowed
		d := 3 + int(seed%9)
		centers := make([][]float64, k)
		for c := range centers {
			centers[c] = make([]float64, d)
			for j := range centers[c] {
				centers[c][j] = rng.Float64() * 50
			}
		}
		set := NewNearestSet(centers)
		for trial := 0; trial < 20; trial++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.Float64() * 50
			}
			if trial%5 == 0 && k > 0 {
				copy(p, centers[rng.IntN(k)]) // exact hits
			}
			var dc distCount
			wantC, wantD := nearestCenter(p, centers, &dc)
			gotC, gotD := set.Nearest(p)
			if wantC != gotC || wantD != gotD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSimplifiedSilhouetteDenseMatches pins the squared-domain,
// norm-pruned silhouette against the row oracle.
func TestSimplifiedSilhouetteDenseMatches(t *testing.T) {
	prop := func(seed uint64, kRaw uint8) bool {
		n := 30 + int(seed%300)
		k := int(kRaw%6) + 2
		rows := benchPoints(n, 10, k, seed)
		eng := parallel.New(1)
		tab := newRowTable(eng, matrix.FromRows(rows))
		res, _, err := kMeansRows(rows, k, 0, Options{Seed: seed})
		if err != nil {
			return false
		}
		want := simplifiedSilhouetteRows(eng, rows, res.Centers, res.Assign)
		got := simplifiedSilhouetteDense(eng, tab, res.Centers, rowAssign(tab, res.Assign))
		return want == got
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSqDist4MatchesSqDist pins the batched distance kernel to SqDist
// bit for bit: each of its four results is the SqDist of its own center,
// at lengths around the batch and unroll edges, on values spanning
// 1e-300 to 1e300 (squares that underflow and overflow) with negative
// and positive zeros mixed in.
func TestSqDist4MatchesSqDist(t *testing.T) {
	rng := stats.NewRNG(29)
	value := func() float64 {
		switch rng.IntN(8) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		}
		v := math.Pow(10, -300+600*rng.Float64())
		if rng.IntN(2) == 0 {
			v = -v
		}
		return v
	}
	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = value()
		}
		return v
	}
	for _, n := range []int{0, 1, 3, 4, 6, 30, 100} {
		for trial := 0; trial < 50; trial++ {
			p := vec(n)
			var c [4][]float64
			for j := range c {
				c[j] = vec(n)
				if trial%5 == j {
					copy(c[j], p) // an exact hit: distance 0
				}
			}
			got := [4]float64{}
			got[0], got[1], got[2], got[3] = sqDist4(p, c[0], c[1], c[2], c[3])
			for j := range c {
				if want := SqDist(p, c[j]); math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("n=%d trial=%d center %d: sqDist4 %v (%#x), SqDist %v (%#x)",
						n, trial, j, got[j], math.Float64bits(got[j]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// latticePoints returns n points in d dimensions with integer
// coordinates in [0, span): few distinct rows, and centroids that land
// on half-lattice points, so exact distance ties between centers and
// duplicate centers are routine.
func latticePoints(n, d, span int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = make([]float64, d)
		for j := range pts[i] {
			pts[i][j] = float64(rng.IntN(span))
		}
	}
	return pts
}

// resultBitsDiff reports the first difference between two clusterings,
// comparing every float by its bits (so −0 and +0 differ).
func resultBitsDiff(want, got Result) string {
	if want.K != got.K || !reflect.DeepEqual(want.Assign, got.Assign) || !reflect.DeepEqual(want.Sizes, got.Sizes) {
		return fmt.Sprintf("k/assign/sizes: want k=%d sizes=%v, got k=%d sizes=%v", want.K, want.Sizes, got.K, got.Sizes)
	}
	if math.Float64bits(want.Inertia) != math.Float64bits(got.Inertia) {
		return fmt.Sprintf("inertia: want %.17g, got %.17g", want.Inertia, got.Inertia)
	}
	if len(want.Centers) != len(got.Centers) {
		return fmt.Sprintf("centers: want %d, got %d", len(want.Centers), len(got.Centers))
	}
	for c := range want.Centers {
		for j, v := range want.Centers[c] {
			if math.Float64bits(v) != math.Float64bits(got.Centers[c][j]) {
				return fmt.Sprintf("center %d dim %d: want %v, got %v", c, j, v, got.Centers[c][j])
			}
		}
	}
	return ""
}

// handoverCase is a hand-built start for lloydFrom: distinct rows, the
// seeds, and each row's seeded center. Its d2 and sq2 are the exact
// distances to the seeded center and to the nearest other seed, so the
// Hamerly prefilter sees valid bounds.
type handoverCase struct {
	rows, seeds [][]float64
	seedArg     []int
}

// pad embeds 2-d vectors in d dimensions, the other coordinates 0, so
// every distance stays the same.
func pad(vs [][]float64, d int) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = make([]float64, d)
		copy(out[i], v)
	}
	return out
}

// run compares lloydFrom from the handover with the oracle's
// lloydUpdate from the same seeds and assignment, bit for bit, at every
// worker count, and returns the result.
func (hc handoverCase) run(t *testing.T) Result {
	t.Helper()
	n, k, d := len(hc.rows), len(hc.seeds), len(hc.rows[0])
	tab := newRowTable(parallel.New(1), matrix.FromRows(hc.rows))
	if tab.distinct() != n {
		t.Fatalf("handover rows must be distinct: %d of %d", tab.distinct(), n)
	}
	var got Result
	for _, w := range workerSweep {
		eng := parallel.New(w)
		hs := new(seedScratch)
		hs.ensure(n, n, k)
		for r, p := range hc.rows {
			a := hc.seedArg[r]
			hs.seedArg[r], hs.d2[r], hs.sq2[r] = int32(a), SqDist(p, hc.seeds[a]), math.Inf(1)
			for b, s := range hc.seeds {
				if b != a {
					hs.sq2[r] = min(hs.sq2[r], SqDist(p, s))
				}
			}
		}
		var st distStats
		got = lloydFrom(tab, matrix.FromRows(hc.seeds), k, hs, eng, &st)
		sc := new(lloydScratch)
		sc.ensure(n, n, k, d)
		want := lloydUpdate(eng, hc.rows, hc.seeds, hc.seedArg, sc, new(atomic.Int64))
		if diff := resultBitsDiff(want, got); diff != "" {
			t.Fatalf("workers=%d: %s", w, diff)
		}
	}
	return got
}

// tieCase is a handover in which row 0, P = (0,0), is seeded to center 1
// (distance² 16, against 36 to center 0) and the update leaves it
// equidistant (distance² 25) from every center: cluster 0 = {(−6,0),
// (−4,0)} moves to (−5,0), cluster 1 = {P, (0,4), (0,11)} to (0,5), and
// centers 2… are single rows on the circle of radius 5 around P. Every
// seeding is the strict nearest seed, as k-means++ would leave it. P
// must go to center 0, which sits mid-list in center 1's near-list.
func tieCase(k, d int) handoverCase {
	seeds := [][]float64{{-6, 0}, {0, 4}, {3, 4}, {-3, 4}, {4, 3}, {5, 0}, {-4, -3}, {3, -4}, {0, -5}}[:k]
	rows := [][]float64{{0, 0}, {-6, 0}, {-4, 0}, {0, 4}, {0, 11}}
	seedArg := []int{1, 0, 0, 1, 1}
	for c := 2; c < k; c++ {
		rows, seedArg = append(rows, seeds[c]), append(seedArg, c)
	}
	return handoverCase{rows: pad(rows, d), seeds: pad(seeds, d), seedArg: seedArg}
}

// dupCase is a handover in which centers 0 and 1 are seeded at the same
// point (0,0), with the rows around it split between them: cluster 0 =
// {(−1,0), (1,0)} and cluster 1 = {(0,−1), (0,1), (0,0)}. Both update
// to (0,0), so every row seeded to center 1 is seeded to a non-root
// duplicate and must go to center 0. Centers 2… are single far rows.
func dupCase(k, d int) handoverCase {
	seeds := [][]float64{{0, 0}, {0, 0}}
	rows := [][]float64{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {0, 0}}
	seedArg := []int{0, 0, 1, 1, 1}
	for c := 2; c < k; c++ {
		far := []float64{float64(20 * c), 7}
		seeds, rows, seedArg = append(seeds, far), append(rows, far), append(seedArg, c)
	}
	return handoverCase{rows: pad(rows, d), seeds: pad(seeds, d), seedArg: seedArg}
}

// TestScanEdgeCasesMatchNaive holds the near-list scan to the oracle
// where its tie rule decides the answer: a row equidistant from its
// seeded center and lower-index ones, which must go to the lowest
// index, and rows seeded to a center that is a non-root duplicate
// after the update. Both start from hand-built handovers; a sweep of
// k-means runs on lattice points, where ties are frequent, adds the
// path from the seeding. k = 2, 3, 5 and 9 leave the four-wide batches
// empty, partly filled and full, at d = 2 and 6 (below and at the
// seeding's norm-test gate). Assign, Sizes and the bits of Inertia and
// Centers must match at every worker count.
func TestScanEdgeCasesMatchNaive(t *testing.T) {
	for _, d := range []int{2, 6} {
		for _, k := range []int{2, 3, 5, 9} {
			if res := tieCase(k, d).run(t); res.Assign[0] != 0 || res.Sizes[1] != 2 {
				t.Fatalf("tie d=%d k=%d: P went to %d, sizes %v; want P at 0 and 2 rows at 1",
					d, k, res.Assign[0], res.Sizes)
			}
			if res := dupCase(k, d).run(t); res.Sizes[0] != 5 || res.Sizes[1] != 0 {
				t.Fatalf("dup d=%d k=%d: sizes %v, want all five rows at center 0", d, k, res.Sizes)
			}
			for seed := uint64(1); seed <= 6; seed++ {
				rows := latticePoints(60+int(seed)*7, d, 3, seed)
				for _, w := range workerSweep {
					naive, pruned := runBoth(t, rows, k, w, Options{Seed: seed})
					if diff := resultBitsDiff(naive, pruned); diff != "" {
						t.Fatalf("lattice d=%d k=%d seed=%d workers=%d: %s", d, k, seed, w, diff)
					}
				}
			}
		}
	}
}
