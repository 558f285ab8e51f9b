package tracebin

import (
	"bytes"
	"math"
	"testing"
	"time"

	"simprof/internal/phase"
	"simprof/internal/sampling"
	"simprof/internal/synth"
	"simprof/internal/trace"
)

// bench100kSpec is the 100k-unit workload behind the decode and
// end-to-end benchmarks: five snapshots per unit at depth 5 over 256
// methods — a long production run at the observation density a 1-CPU
// baseline runner can profile interactively.
func bench100kSpec() synth.TraceSpec {
	spec := synth.DefaultTrace(100_000, 1234)
	spec.Depth = 5
	spec.Snapshots = 5
	return spec
}

var bench100k struct {
	bin []byte
	gob []byte
}

// bench100kData generates and encodes the 100k-unit trace once per
// test binary (the generation itself is not part of any measurement).
func bench100kData(b *testing.B) ([]byte, []byte) {
	b.Helper()
	if bench100k.bin == nil {
		tr, err := bench100kSpec().Generate()
		if err != nil {
			b.Fatal(err)
		}
		if bench100k.bin, err = Marshal(tr); err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.EncodeGob(&buf); err != nil {
			b.Fatal(err)
		}
		bench100k.gob = buf.Bytes()
	}
	return bench100k.bin, bench100k.gob
}

// BenchmarkDecodeBin measures the columnar decode of the 100k-unit
// trace: header + CRC + column validation + zero-copy adoption.
func BenchmarkDecodeBin(b *testing.B) {
	bin, _ := bench100kData(b)
	b.SetBytes(int64(len(bin)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeGob is the legacy path on identical data: gob decode
// and validation — the baseline DecodeBin replaces.
func BenchmarkDecodeGob(b *testing.B) {
	_, gobData := bench100kData(b)
	b.SetBytes(int64(len(gobData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeBytes(gobData); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd100k is the tentpole target: decode → phase
// formation (frequency matrix adopted from the file, parallel
// projection) → Neyman allocation → CPI estimate, on 100k units,
// in under 100ms on the baseline runner. The Options mirror an
// interactive profile of a long run: a focused feature space and a
// small k sweep — the pipeline a `simprof profile` of a pre-recorded
// trace executes.
//
// It reports its stage ledger from the same iterations as the total:
// decode-ms/op, form-ms/op, simprof-ms/op and estimate-ms/op. The
// stages cover the whole loop body, so their sum must be within
// ledgerSlack of the total; a wider gap fails the benchmark.
func BenchmarkEndToEnd100k(b *testing.B) {
	const ledgerSlack = 0.05
	bin, _ := bench100kData(b)
	var decode, form, simprof, estimate time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		tr, err := Decode(bin)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		ph, err := phase.Form(tr, phase.Options{
			TopK:      6,
			MaxPhases: 4,
			Restarts:  1,
			Seed:      7,
		})
		if err != nil {
			b.Fatal(err)
		}
		t2 := time.Now()
		sp, err := sampling.SimProf(ph, 40, 7)
		if err != nil {
			b.Fatal(err)
		}
		t3 := time.Now()
		if _, err := sampling.EstimateOnTrace(ph, sp, tr); err != nil {
			b.Fatal(err)
		}
		t4 := time.Now()
		decode += t1.Sub(t0)
		form += t2.Sub(t1)
		simprof += t3.Sub(t2)
		estimate += t4.Sub(t3)
	}
	total := b.Elapsed()
	b.StopTimer()
	perOp := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
	b.ReportMetric(perOp(decode), "decode-ms/op")
	b.ReportMetric(perOp(form), "form-ms/op")
	b.ReportMetric(perOp(simprof), "simprof-ms/op")
	b.ReportMetric(perOp(estimate), "estimate-ms/op")
	sum := decode + form + simprof + estimate
	if gap := math.Abs(sum.Seconds()/total.Seconds() - 1); gap > ledgerSlack {
		b.Fatalf("stage ledger sums to %v of a %v total (%.1f%% apart, slack %.0f%%)",
			sum, total, 100*gap, 100*ledgerSlack)
	}
}
