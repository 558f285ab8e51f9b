//go:build !race

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// TestHitAllocatesUnderTwiceUpload: answering a cache hit on a ~200 KB
// upload allocates less than twice the upload per request, in process.
// The body lands in one buffer sized from its Content-Length; growing
// it through io.ReadAll allocated about 4.5× the upload. The race
// detector changes what allocates, so the test is built without it.
func TestHitAllocatesUnderTwiceUpload(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	data := encodedTrace(t, 1100, 1)
	const url = "/v1/profile?n=20&seed=1"
	serve := func(req *http.Request, want string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Simprof-Cache") != want {
			t.Fatalf("status %d, X-Simprof-Cache %q, want 200 %s; body %s",
				rec.Code, rec.Header().Get("X-Simprof-Cache"), want, rec.Body)
		}
	}
	serve(httptest.NewRequest(http.MethodPost, url, bytes.NewReader(data)), "miss")

	const hits = 20
	reqs := make([]*http.Request, hits)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, req := range reqs {
		serve(req, "hit")
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / hits
	t.Logf("a hit on a %d B upload allocated %d B (%.2f×)", len(data), per, float64(per)/float64(len(data)))
	if per >= 2*uint64(len(data)) {
		t.Fatalf("a hit allocated %d B, want under twice the %d B upload", per, len(data))
	}
}
