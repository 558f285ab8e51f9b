package server

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"simprof/internal/obs"
)

// The access-log counters mirror the logger's internal tallies. The
// logger is the source of truth (it counts whether or not telemetry is
// enabled, and its shutdown line must match); the obs counters are
// synced from the tallies at scrape time so /metrics and /v1/metrics
// always expose the current values instead of a racing duplicate count.
var (
	obsAccessLogDropped = obs.NewCounter("server.accesslog_dropped",
		"access-log lines dropped because the log queue was full")
	obsAccessLogLines = obs.NewCounter("server.accesslog_lines",
		"access-log lines written")
)

// accessEntry is one structured access-log line: who asked for what,
// how it was classified, and where the time went. All durations are
// milliseconds. handle_ms is the whole request; enqueue_ms (admission
// wait) and flush_ms (history persist) are always present. A profile
// request also carries its stage ledger: read, hash and encode always,
// and decode, form and sample only on the request whose flight ran the
// pipeline (a miss), like flush_ms. The stages are disjoint parts of
// handle_ms; dominant names the largest.
type accessEntry struct {
	ID        string  `json:"id"`
	Route     string  `json:"route"`
	Tenant    string  `json:"tenant"`
	Status    int     `json:"status"`
	Class     string  `json:"class"`
	Bytes     int64   `json:"bytes"`
	ReadMS    float64 `json:"read_ms,omitempty"`
	HashMS    float64 `json:"hash_ms,omitempty"`
	EnqueueMS float64 `json:"enqueue_ms"`
	DecodeMS  float64 `json:"decode_ms,omitempty"`
	FormMS    float64 `json:"form_ms,omitempty"`
	SampleMS  float64 `json:"sample_ms,omitempty"`
	FlushMS   float64 `json:"flush_ms"`
	EncodeMS  float64 `json:"encode_ms,omitempty"`
	HandleMS  float64 `json:"handle_ms"`
	Dominant  string  `json:"dominant,omitempty"`
}

// entry renders the request's stats as its access-log line.
func (st *reqStats) entry(status int, handle time.Duration) accessEntry {
	e := accessEntry{
		ID:        st.id,
		Route:     st.route,
		Tenant:    st.tenant,
		Status:    status,
		Class:     st.class.String(),
		Bytes:     st.bytes,
		ReadMS:    durMS(st.read),
		HashMS:    durMS(st.hash),
		EnqueueMS: durMS(st.enqueue),
		DecodeMS:  durMS(st.pipe.decode),
		FormMS:    durMS(st.pipe.form),
		SampleMS:  durMS(st.pipe.sample),
		FlushMS:   durMS(st.flush),
		EncodeMS:  durMS(st.encode),
		HandleMS:  durMS(handle),
	}
	largest := 0.0
	for _, s := range [...]struct {
		name string
		ms   float64
	}{
		{"read", e.ReadMS}, {"hash", e.HashMS}, {"enqueue", e.EnqueueMS},
		{"decode", e.DecodeMS}, {"form", e.FormMS}, {"sample", e.SampleMS},
		{"flush", e.FlushMS}, {"encode", e.EncodeMS},
	} {
		if s.ms > largest {
			largest, e.Dominant = s.ms, s.name
		}
	}
	return e
}

// shutdownEntry is the final line an access log emits on Close, so a
// log consumer can tell a clean drain from a truncated file.
type shutdownEntry struct {
	Event    string `json:"event"` // always "shutdown"
	Requests int64  `json:"requests"`
	Dropped  int64  `json:"dropped"`
}

// accessLogger writes one JSON line per request to an io.Writer,
// asynchronously: the handler path enqueues onto a bounded channel and
// never blocks on the log sink (a slow disk must not add tail latency).
// When the queue is full the line is dropped and counted. Close drains
// the queue, appends a shutdown line, and waits for the writer
// goroutine to exit — the chaos harness's goroutine-leak check covers
// the lifecycle.
type accessLogger struct {
	ch     chan accessEntry
	done   chan struct{}
	closed sync.Once

	mu sync.Mutex // serializes writes with the final shutdown line
	w  io.Writer
	// written and dropped are atomics, not mu-guarded: the scrape path
	// reads them while the writer goroutine may be blocked inside a slow
	// sink's Write with mu held.
	written atomic.Int64
	dropped atomic.Int64
}

// newAccessLogger starts the writer goroutine over w. A nil writer
// returns a nil logger, whose methods no-op.
func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	l := &accessLogger{
		ch:   make(chan accessEntry, 1024),
		done: make(chan struct{}),
		w:    w,
	}
	go l.run()
	return l
}

func (l *accessLogger) run() {
	defer close(l.done)
	for e := range l.ch {
		l.write(e)
	}
}

func (l *accessLogger) write(e accessEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(e)
	if err != nil {
		return
	}
	b = append(b, '\n')
	if _, err := l.w.Write(b); err == nil {
		l.written.Add(1)
	}
}

// Log enqueues one entry; it never blocks. A full queue drops the line
// (counted in server.accesslog_dropped).
func (l *accessLogger) Log(e accessEntry) {
	if l == nil {
		return
	}
	select {
	case l.ch <- e:
	default:
		l.dropped.Add(1)
	}
}

// Written returns the number of lines successfully written so far.
func (l *accessLogger) Written() int64 {
	if l == nil {
		return 0
	}
	return l.written.Load()
}

// Dropped returns the number of lines dropped to the full queue.
func (l *accessLogger) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.dropped.Load()
}

// Close stops the logger: the queue is drained, a final shutdown line
// is written, and the writer goroutine is gone when Close returns.
// Safe to call more than once.
func (l *accessLogger) Close() {
	if l == nil {
		return
	}
	l.closed.Do(func() {
		close(l.ch)
		<-l.done
		l.mu.Lock()
		defer l.mu.Unlock()
		b, err := json.Marshal(shutdownEntry{
			Event:    "shutdown",
			Requests: l.written.Load(),
			Dropped:  l.dropped.Load(),
		})
		if err != nil {
			return
		}
		l.w.Write(append(b, '\n'))
	})
}
