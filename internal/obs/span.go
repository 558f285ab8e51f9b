package obs

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one timed region of a run. Spans form a tree: the CLI opens a
// root with StartRun, pipeline stages open children with StartSpan and
// close them with End. Durations come from the monotonic clock. The
// parent of a span is the span carried by the context it was opened
// with, so the tree follows the call structure even when stages run
// on several goroutines at once.
type Span struct {
	Name string `json:"name"`
	// StartNS is the span's start offset from the root start, DurNS its
	// monotonic duration, both in nanoseconds.
	StartNS  int64   `json:"start_ns"`
	DurNS    int64   `json:"dur_ns"`
	Children []*Span `json:"children,omitempty"`
	// GID is the id of the goroutine that opened the span, so trace
	// viewers can lane spans by executor (0 in pre-v2 manifests).
	GID int64 `json:"gid,omitempty"`

	start time.Time
	ended bool
	// col owns the tree the span belongs to; its lock guards the
	// span's children and duration.
	col *collector
}

// curGID returns the running goroutine's id by parsing the
// "goroutine N [...]" header of its stack dump. It only labels spans
// and timer samples with their trace-viewer lane; nothing is looked up
// by it. Only called on enabled telemetry paths.
func curGID() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// Duration returns the span's measured duration.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurNS)
}

// SelfDuration returns the span's duration minus its children's — the
// time spent in the stage itself.
func (s *Span) SelfDuration() time.Duration {
	if s == nil {
		return 0
	}
	d := s.DurNS
	for _, c := range s.Children {
		d -= c.DurNS
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// Walk visits the span and every descendant depth-first, passing each
// node's depth (0 for the receiver).
func (s *Span) Walk(fn func(sp *Span, depth int)) {
	if s == nil {
		return
	}
	var rec func(sp *Span, depth int)
	rec = func(sp *Span, depth int) {
		fn(sp, depth)
		for _, c := range sp.Children {
			rec(c, depth+1)
		}
	}
	rec(s, 0)
}

// spanState is the process-wide run: the tree StartRun opened (the
// parent of every span whose context carries none) plus the run's
// concurrent timer samples.
var spanState struct {
	mu             sync.Mutex
	run            *collector
	samples        []TimerSample
	samplesDropped int64
}

// StartRun resets the run tree (and the timer-sample buffer) and opens
// a new root span. It returns nil (and collects nothing) while
// telemetry is disabled.
func StartRun(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	c := newCollector(name)
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	spanState.run = c
	spanState.samples = nil
	spanState.samplesDropped = 0
	return c.root
}

// spanKey is the context key under which StartSpan carries the
// enclosing span.
type spanKey struct{}

// StartSpan opens a child span and returns it with a context carrying
// it, so stages that take the returned context nest under it. The
// parent is the span in ctx; a ctx without one parents the span on the
// root StartRun opened. With telemetry disabled, no run, or a parent
// that has already ended, it returns ctx unchanged and a nil span; nil
// spans no-op on End, so call sites need no guards.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil {
		spanState.mu.Lock()
		if spanState.run != nil {
			parent = spanState.run.root
		}
		spanState.mu.Unlock()
		if parent == nil {
			return ctx, nil
		}
	}
	s := parent.col.open(parent, name)
	if s == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// End closes the span, recording its monotonic duration. Ending twice
// keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.col.mu.Lock()
	defer s.col.mu.Unlock()
	if !s.ended {
		s.DurNS = time.Since(s.start).Nanoseconds()
		s.ended = true
	}
}

// SpanTree returns the current run's root span, or nil if no run was
// started. The returned tree is live; call after the root's End.
func SpanTree() *Span {
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	if spanState.run == nil {
		return nil
	}
	return spanState.run.root
}

// Timer marks a start time for histogram-recorded durations. The zero
// Timer (returned while telemetry is disabled) records nothing, so the
// disabled path performs no clock reads and no allocations.
type Timer struct{ t time.Time }

// StartTimer returns a running timer, or the zero Timer when disabled.
func StartTimer() Timer {
	if !enabled.Load() {
		return Timer{}
	}
	return Timer{t: time.Now()}
}

// TimerSample is one concurrent timed interval captured by ObserveTimer
// while a run was active: which histogram it fed, which goroutine ran
// it, and when it ran relative to the run's root span. Samples are the
// parallel-pool complement of the stage span tree — trace export
// lanes them by GID next to the driver's stages.
type TimerSample struct {
	Name    string `json:"name"`
	GID     int64  `json:"gid"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// maxTimerSamples bounds the per-run sample buffer so a hot loop cannot
// grow telemetry state without limit; overflow is counted, not stored.
const maxTimerSamples = 8192

// ObserveTimer records the elapsed seconds since t started. Zero timers
// and nil histograms no-op. While a run is active the interval is also
// captured as a TimerSample for trace export.
func (h *Histogram) ObserveTimer(t Timer) {
	if h == nil || t.t.IsZero() {
		return
	}
	d := time.Since(t.t)
	h.Observe(d.Seconds())
	recordTimerSample(h.name, t.t, d)
}

// recordTimerSample appends one sample to the active run's buffer.
// Concurrent callers interleave nondeterministically; TimerSamples
// sorts before returning so serialized output is stable up to the
// measured times themselves.
func recordTimerSample(name string, start time.Time, d time.Duration) {
	if !enabled.Load() {
		return
	}
	gid := curGID()
	spanState.mu.Lock()
	defer spanState.mu.Unlock()
	if spanState.run == nil {
		return
	}
	if len(spanState.samples) >= maxTimerSamples {
		spanState.samplesDropped++
		return
	}
	spanState.samples = append(spanState.samples, TimerSample{
		Name:    name,
		GID:     gid,
		StartNS: start.Sub(spanState.run.t0).Nanoseconds(),
		DurNS:   d.Nanoseconds(),
	})
}

// TimerSamples returns the active run's captured samples sorted by
// (start, name, gid), plus the count dropped to the buffer bound.
func TimerSamples() ([]TimerSample, int64) {
	spanState.mu.Lock()
	out := append([]TimerSample(nil), spanState.samples...)
	dropped := spanState.samplesDropped
	spanState.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].StartNS != out[b].StartNS {
			return out[a].StartNS < out[b].StartNS
		}
		if out[a].Name != out[b].Name {
			return out[a].Name < out[b].Name
		}
		return out[a].GID < out[b].GID
	})
	return out, dropped
}
