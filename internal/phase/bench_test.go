package phase

import (
	"fmt"
	"testing"
)

// BenchmarkForm measures full phase formation (vectorization, feature
// selection, k sweep) on a synthetic 600-unit trace.
func BenchmarkForm(b *testing.B) {
	tr := synthTrace(300, 1) // 600 units
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Form(tr, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFormPhases is phase formation across worker counts — the
// parallel-scaling view of BenchmarkForm (whose single-number result
// stays the perf-gate baseline).
func BenchmarkFormPhases(b *testing.B) {
	tr := synthTrace(300, 1)
	for _, w := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Form(tr, Options{Seed: uint64(i), Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVectorizeSparse measures CSR vectorization of the full
// method space — the path Form runs when no decoder-attached matrix is
// adopted: Trace.CountMethods plus the identity-map check.
func BenchmarkVectorizeSparse(b *testing.B) {
	tr := synthTrace(300, 2)
	fs := fullSpace(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.VectorizeSparse(tr)
	}
}
