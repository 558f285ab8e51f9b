package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"simprof/internal/stats"
)

// BenchmarkSimprofdP99 drives the service with concurrent profile
// uploads and reports the tail (p99) request latency. Every request
// carries its own seed, so each one is a cache miss that runs the
// pipeline and the durable history append (the hit path is
// BenchmarkSimprofdStorm's). It reports the tail as the benchmark's
// ns/op metric on purpose: the repo's bench gate compares ns/op medians
// across runs, so regressing the service's tail latency trips the same
// noise-aware gate as the kernels.
func BenchmarkSimprofdP99(b *testing.B) {
	srv, err := New(Config{
		HistoryPath: filepath.Join(b.TempDir(), "history.jsonl"),
		Concurrency: 4,
		Queue:       1 << 16, // admission must never 429 the benchmark itself
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	data := encodedTrace(b, 200, 1)

	var mu sync.Mutex
	var lat []float64
	var seed atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]float64, 0, 64)
		for pb.Next() {
			url := fmt.Sprintf("%s/v1/profile?n=20&seed=%d", ts.URL, seed.Add(1))
			start := time.Now()
			resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(data))
			if err != nil {
				b.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
			if h := resp.Header.Get("X-Simprof-Cache"); h != "miss" {
				b.Errorf("X-Simprof-Cache = %q, want miss", h)
				return
			}
			local = append(local, float64(time.Since(start)))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	if len(lat) == 0 {
		return
	}
	sort.Float64s(lat)
	p99 := lat[int(0.99*float64(len(lat)-1))]
	b.ReportMetric(p99, "ns/op")
}

// BenchmarkSimprofdStorm drives a duplicate-heavy concurrent storm —
// the fleet-scale shape the dedup layer exists for. The request
// schedule draws from a fixed catalog of 16 distinct profile requests:
// a configurable fraction (SIMPROF_STORM_DUP percent, default 50)
// targets the 4-key hot set, the rest sweep the whole catalog, so the
// same profiles recur throughout the run the way redundant analytic
// workloads do. It reports p99 latency as ns/op (riding the repo's
// noise-aware bench gate), plus req/s and the measured dedup ratio
// (hits + coalesced per request) for the throughput table in
// EXPERIMENTS.md.
func BenchmarkSimprofdStorm(b *testing.B) {
	dupPct := 50
	if v := os.Getenv("SIMPROF_STORM_DUP"); v != "" {
		if p, err := strconv.Atoi(v); err == nil && p >= 0 && p <= 100 {
			dupPct = p
		}
	}
	// The sub-benchmark keeps its historical name: the bench gate
	// matches baseline rows by name.
	b.Run("batched", func(b *testing.B) {
		// HistoryPath stays empty: fsync throughput is not what this
		// benchmark measures.
		srv, err := New(Config{Concurrency: 4, Queue: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		// Catalog: 16 distinct requests over 4 distinct trace payloads
		// (the seed query param splits each payload into 4 keys).
		traces := make([][]byte, 4)
		for i := range traces {
			traces[i] = encodedTrace(b, 200, uint64(i+1))
		}
		type req struct {
			url  string
			data []byte
		}
		catalog := make([]req, 16)
		for i := range catalog {
			catalog[i] = req{
				url:  fmt.Sprintf("%s/v1/profile?n=20&seed=%d", ts.URL, i+1),
				data: traces[i%len(traces)],
			}
		}

		// Warm the catalog before timing: every key's first request is
		// an unavoidable compute miss, and at short benchtimes those 16
		// cold misses would dominate the p99 and make the gated metric
		// benchtime-dependent. The steady state — a fleet replaying
		// profiles it has seen before — is what this benchmark measures.
		for _, c := range catalog {
			resp, err := http.Post(c.url, "application/octet-stream", bytes.NewReader(c.data))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("warm-up status %d", resp.StatusCode)
			}
		}

		var seq atomic.Uint64
		var dedup atomic.Uint64
		var mu sync.Mutex
		var lat []float64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			local := make([]float64, 0, 256)
			for pb.Next() {
				// Seeded schedule: deterministic across runs for a given
				// dup percentage, independent of goroutine interleaving.
				r := stats.SplitSeed(0xbeef, seq.Add(1))
				var target req
				if int(r%100) < dupPct {
					target = catalog[(r>>8)%4] // hot set
				} else {
					target = catalog[(r>>8)%uint64(len(catalog))]
				}
				start := time.Now()
				resp, err := http.Post(target.url, "application/octet-stream", bytes.NewReader(target.data))
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Errorf("status %d", resp.StatusCode)
					return
				}
				switch resp.Header.Get("X-Simprof-Cache") {
				case "hit", "coalesced":
					dedup.Add(1)
				}
				local = append(local, float64(time.Since(start)))
			}
			mu.Lock()
			lat = append(lat, local...)
			mu.Unlock()
		})
		elapsed := b.Elapsed()
		b.StopTimer()
		if len(lat) == 0 {
			return
		}
		sort.Float64s(lat)
		b.ReportMetric(lat[int(0.99*float64(len(lat)-1))], "ns/op") // p99, gated
		b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "req/s")
		b.ReportMetric(float64(dedup.Load())/float64(len(lat)), "dedup/op")
	})
}

// BenchmarkSimprofdHit times the cache-hit path a repeated upload
// takes — body read, sha256, cache probe, JSON encode — on one ~200 KB
// gob upload, warmed once and then sent sequentially. It reports the
// p50 request latency as ns/op (the hit path sets serve-mixed's
// median) and the allocations per request.
func BenchmarkSimprofdHit(b *testing.B) {
	srv, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	data := encodedTrace(b, 1100, 1)
	url := ts.URL + "/v1/profile?n=20&seed=1"
	post := func(want string) {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Simprof-Cache") != want {
			b.Fatalf("status %d, X-Simprof-Cache %q, want 200 %s",
				resp.StatusCode, resp.Header.Get("X-Simprof-Cache"), want)
		}
	}
	post("miss")

	lat := make([]float64, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		post("hit")
		lat = append(lat, float64(time.Since(start)))
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "ns/op") // p50, gated
}

// BenchmarkAccessLog measures what the access log adds to the request
// path. "enqueue" is the handler-side cost with a live logger (a
// non-blocking channel send; the JSON encode happens on the writer
// goroutine); "disabled" is the nil-logger no-op every request pays
// when -access-log is off.
func BenchmarkAccessLog(b *testing.B) {
	entry := accessEntry{
		ID: "0123456789abcdef", Route: "/v1/profile", Tenant: "default",
		Status: 200, Class: "ok", Bytes: 1 << 20,
		ReadMS: 0.65, HashMS: 0.14, EnqueueMS: 0.21, DecodeMS: 14.8, FormMS: 24.5,
		SampleMS: 0.08, FlushMS: 1.73, EncodeMS: 0.1, HandleMS: 42.5, Dominant: "form",
	}
	b.Run("enqueue", func(b *testing.B) {
		l := newAccessLogger(io.Discard)
		defer l.Close()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Log(entry)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var l *accessLogger
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			l.Log(entry)
		}
	})
}
