package main

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failLatency is the latency recorded for an operation that failed or
// was refused. It is the client timeout, far above any latency limit,
// so a failure always counts as missing the limit.
const failLatency = 30 * time.Second

// sloLimit is the service's default latency objective (p99 < 500 ms).
const sloLimit = 500 * time.Millisecond

// timing is one operation as the load generator saw it.
type timing struct {
	Index int
	// Due is when the operation was scheduled to start: the schedule slot
	// in an open loop, the client's previous completion in a closed loop.
	Due time.Time
	// Late is how late the generator handed the operation out.
	Late time.Duration
	// Wait is Due until a connection (a client slot) picked it up; it
	// includes Late.
	Wait time.Duration
	// Latency is Due until completion; failLatency for a failure.
	Latency time.Duration
	Failed  bool
}

// openLoop sends n operations at a fixed rate over conns connections,
// each timed from its scheduled send time: an operation waiting for a
// busy connection is charged the wait, as an independent user would be.
// do runs operation i and reports whether it failed.
func openLoop(rate float64, n, conns int, do func(i int) error) []timing {
	out := make([]timing, n)
	// Sized to the number of sends, so the generator never blocks behind
	// busy connections and the schedule stays open-loop.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				t := &out[i]
				pick := time.Now()
				err := do(i)
				t.Wait = pick.Sub(t.Due)
				t.Latency = time.Since(t.Due)
				if err != nil {
					t.Failed, t.Latency = true, failLatency
				}
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		waitUntil(due)
		out[i] = timing{Index: i, Due: due, Late: time.Since(due)}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// sleepSlack is how far ahead of a due time the generator stops
// sleeping: the Go timer can overshoot by about a millisecond here,
// which would add a generator artifact to every open-loop latency.
const sleepSlack = 1500 * time.Microsecond

// waitUntil returns at t: it sleeps until shortly before, then yields
// until t arrives.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop runs clients that each start their next operation as soon
// as the previous one completes, until d has elapsed; operations are
// numbered in start order from first. It returns the timings in start
// order and the wall time from the first start to the last completion.
func closedLoop(d time.Duration, clients, first int, do func(i int) error) ([]timing, time.Duration) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	var out []timing
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []timing
			prev := time.Now()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				begin := time.Now()
				err := do(i)
				end := time.Now()
				t := timing{Index: i, Due: prev, Late: begin.Sub(prev), Wait: begin.Sub(prev), Latency: end.Sub(prev)}
				if err != nil {
					t.Failed, t.Latency = true, failLatency
				}
				local = append(local, t)
				prev = end
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out, elapsed
}

// latencySummary is the end-to-end view of a set of timings: the median
// and tail latency with failures counted as missing the limit, and the
// share of operations over the service's latency objective.
type latencySummary struct {
	N         int
	Failed    int
	P50       float64 // ms
	Tail      float64 // ms
	TailPct   int
	OverLimit int
}

func summarize(ts []timing) latencySummary {
	lat := make([]float64, len(ts))
	s := latencySummary{N: len(ts), TailPct: tailPercentile(len(ts))}
	for i, t := range ts {
		lat[i] = ms(t.Latency)
		if t.Failed {
			s.Failed++
		}
		if t.Failed || t.Latency > sloLimit {
			s.OverLimit++
		}
	}
	s.P50 = percentile(lat, 50)
	s.Tail = percentile(lat, s.TailPct)
	return s
}
