package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// get issues one request carrying its index and fails on any non-200.
func get(client *http.Client, url string, i int) error {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Index", strconv.Itoa(i))
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func twoConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

// A handler that stalls the first two requests ties up both
// connections; every request due during the stall must be charged the
// wait from its due time, not timed from when it finally went out.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i, _ := strconv.Atoi(r.Header.Get("X-Index")); i < 2 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := twoConnClient()
	defer client.Transport.(*http.Transport).CloseIdleConnections()

	const rate, n = 100.0, 20 // one request every 10ms, all due within the stall
	ts := openLoop(rate, n, 2, func(i int) error { return get(client, srv.URL, i) })
	for _, tm := range ts[2:] {
		dueOffset := time.Duration(tm.Index) * 10 * time.Millisecond
		// The connections free up at about stall; the request was due at
		// dueOffset, so at least stall-dueOffset of waiting is owed.
		owed := stall - dueOffset - 20*time.Millisecond
		if tm.Failed {
			t.Fatalf("request %d failed", tm.Index)
		}
		if tm.Latency < owed || tm.Wait < owed {
			t.Errorf("request %d: latency %v wait %v, want both ≥ %v (due during the stall)", tm.Index, tm.Latency, tm.Wait, owed)
		}
		if tm.Latency-tm.Wait > 100*time.Millisecond {
			t.Errorf("request %d: %v after pickup; only the wait should be long", tm.Index, tm.Latency-tm.Wait)
		}
	}
	if s := summarize(ts); s.P50 < ms(stall)/3 {
		t.Errorf("p50 %.1fms hides the stall a due-time clock must show", s.P50)
	}
}

// Refused (429) and failed (connection refused) requests both count as
// missing the latency limit, however fast they came back.
func TestFailuresMissTheLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if i, _ := strconv.Atoi(r.Header.Get("X-Index")); i%4 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close() // nothing listens here any more: connection refused
	client := twoConnClient()
	defer client.Transport.(*http.Transport).CloseIdleConnections()

	ts := openLoop(200, 40, 2, func(i int) error {
		if i%4 == 1 {
			return get(client, dead, i)
		}
		return get(client, srv.URL, i)
	})
	s := summarize(ts)
	if s.Failed != 20 {
		t.Fatalf("%d failed, want 20 (10 refused with 429, 10 connection refused)", s.Failed)
	}
	if s.OverLimit < s.Failed {
		t.Errorf("%d over the limit, want every one of the %d failures counted", s.OverLimit, s.Failed)
	}
	for _, tm := range ts {
		if tm.Failed && tm.Latency <= sloLimit {
			t.Errorf("failed request %d recorded %v, within the %v limit", tm.Index, tm.Latency, sloLimit)
		}
	}
	if s.Tail <= ms(sloLimit) {
		t.Errorf("tail %.1fms: half the requests failed, so the tail must miss the limit", s.Tail)
	}

	closed, _ := closedLoop(50*time.Millisecond, 2, 0, func(i int) error { return get(client, dead, i) })
	if cs := summarize(closed); cs.Failed != len(closed) || cs.OverLimit != len(closed) {
		t.Errorf("closed loop: %d of %d failed, %d over the limit; want all", cs.Failed, len(closed), cs.OverLimit)
	}
}
