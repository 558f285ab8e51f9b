// Package parallel is SimProf's shared execution engine: a bounded,
// nesting-safe worker pool that the compute kernels (k-means restarts,
// the ChooseK sweep, the silhouette passes, feature scoring and the
// experiment driver) all run on.
//
// Two properties drive the design:
//
//  1. Determinism. Work is split over a fixed chunk grid that depends
//     only on the input size and the chunk size — never on the worker
//     count or on scheduling. Per-chunk partial results are merged in
//     chunk index order, so floating-point reductions are bit-for-bit
//     identical for 1, 2 or 64 workers. A caller that needs a serial
//     baseline just runs the same code with workers=1.
//
//  2. Bounded nesting. An Engine carries its own helper budget
//     (workers-1 helper goroutines across *all* simultaneous loops on
//     that engine), and every helper additionally needs a token from a
//     process-wide pool sized from GOMAXPROCS. A parallel k-sweep whose
//     restart streams run chunked point passes therefore degrades
//     gracefully to serial execution instead of oversubscribing the
//     machine: the calling goroutine always participates, so forward
//     progress never waits on a token.
//
// Panics inside loop bodies are captured and re-raised on the calling
// goroutine after all workers have drained, so a panicking task can
// never deadlock a sibling or leak a goroutine.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"simprof/internal/obs"
)

// Pool-utilization telemetry (recorded only while obs is enabled; the
// disabled path is a single atomic load per loop, not per chunk).
var (
	obsLoops = obs.NewCounter("parallel.loops",
		"parallel loops issued on any engine")
	obsLoopsSerial = obs.NewCounter("parallel.loops_serial",
		"loops that ran inline on the caller (single chunk or workers=1)")
	obsChunks = obs.NewCounter("parallel.chunks",
		"chunks processed across all loops")
	obsHelpers = obs.NewCounter("parallel.helpers",
		"helper goroutines launched")
	obsHelperDenied = obs.NewCounter("parallel.helper_denied",
		"helper launches denied by an exhausted engine or token budget")
	obsLoopsCanceled = obs.NewCounter("parallel.ctx_canceled_loops",
		"loops halted early because the engine's context ended")
	obsChunksAbandoned = obs.NewCounter("parallel.chunks_abandoned",
		"grid chunks never run because the engine's context ended")
)

// tokens is the process-wide helper budget. Helpers (extra goroutines
// beyond the calling one) each hold one token for their lifetime, which
// bounds the total number of running workers across arbitrarily nested
// engines to roughly GOMAXPROCS + nesting depth.
var tokens chan struct{}

func init() {
	n := runtime.GOMAXPROCS(0)
	tokens = make(chan struct{}, n)
	for i := 0; i < n; i++ {
		tokens <- struct{}{}
	}
}

// Engine is a bounded execution engine. The zero value is not usable;
// construct one with New or share the process-wide Default.
type Engine struct {
	workers int
	helpers chan struct{} // per-engine helper budget (workers-1 slots)
	ctx     context.Context
}

// New returns an engine that runs at most workers goroutines at once
// across all loops issued on it (the caller counts as one). workers <= 0
// selects GOMAXPROCS. workers == 1 is the serial engine: loop bodies run
// inline on the calling goroutine, in chunk index order.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{workers: workers}
	if workers > 1 {
		e.helpers = make(chan struct{}, workers-1)
		for i := 0; i < workers-1; i++ {
			e.helpers <- struct{}{}
		}
	}
	return e
}

var (
	defaultOnce   sync.Once
	defaultEngine *Engine
)

// Default returns the shared process-wide engine, sized from GOMAXPROCS
// at first use.
func Default() *Engine {
	defaultOnce.Do(func() { defaultEngine = New(0) })
	return defaultEngine
}

// Workers reports the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// WithContext returns an engine that shares this engine's worker and
// helper budgets but observes ctx: once ctx ends, loops issued on the
// returned engine stop claiming new chunks and return early (chunks
// already started run to completion — loop bodies are never killed
// mid-write). A loop cut short leaves its output partially written, so
// callers MUST check Err after each loop (ForEachIndexErr does it for
// them) and discard the partial result on cancellation. Kernel results
// therefore remain bit-for-bit deterministic: a loop either completes
// every chunk or reports the context error.
//
// A nil ctx returns the receiver unchanged.
func (e *Engine) WithContext(ctx context.Context) *Engine {
	if ctx == nil {
		return e
	}
	return &Engine{workers: e.workers, helpers: e.helpers, ctx: ctx}
}

// Err reports the engine context's error: non-nil once the context has
// ended. Callers of ForEachChunk / MapReduce on a context-bound engine
// check it after the loop to learn whether the grid completed.
func (e *Engine) Err() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// canceled is the per-chunk cancellation probe: a nil check on a
// context-free engine, a ctx.Err call otherwise.
func (e *Engine) canceled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// Chunks returns the number of chunks the grid [0,n) splits into at the
// given chunk size. The grid is a pure function of n and chunkSize, so
// per-chunk accumulators indexed by it merge identically regardless of
// how many workers processed them.
func Chunks(n, chunkSize int) int {
	if n <= 0 {
		return 0
	}
	if chunkSize <= 0 {
		chunkSize = 1
	}
	return (n + chunkSize - 1) / chunkSize
}

// panicBox records the panic from the lowest-indexed chunk so the value
// re-raised on the caller is deterministic even if several workers
// panic in the same loop.
type panicBox struct {
	mu    sync.Mutex
	set   bool
	chunk int
	val   any
}

func (p *panicBox) record(chunk int, val any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.set || chunk < p.chunk {
		p.set, p.chunk, p.val = true, chunk, val
	}
}

func (p *panicBox) rethrow() {
	if p.set {
		panic(fmt.Sprintf("parallel: chunk %d panicked: %v", p.chunk, p.val))
	}
}

// ForEachChunk invokes fn(chunk, lo, hi) for every chunk of the fixed
// grid over [0,n). Chunks are claimed dynamically by up to Workers()
// goroutines (the caller included); fn must therefore be safe to call
// concurrently for distinct chunks, and must confine its writes to
// chunk-indexed or element-indexed state. The call returns when every
// chunk has completed. If any fn panics, remaining chunks are abandoned
// and the panic is re-raised here after all workers stop.
func (e *Engine) ForEachChunk(n, chunkSize int, fn func(chunk, lo, hi int)) {
	chunks := Chunks(n, chunkSize)
	if chunks == 0 {
		return
	}
	if chunkSize <= 0 {
		chunkSize = 1
	}
	run := func(c int) {
		lo := c * chunkSize
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
	}
	obsLoops.Inc()
	obsChunks.Add(int64(chunks))
	if chunks == 1 || e.workers <= 1 {
		obsLoopsSerial.Inc()
		for c := 0; c < chunks; c++ {
			if e.canceled() {
				obsLoopsCanceled.Inc()
				obsChunksAbandoned.Add(int64(chunks - c))
				return
			}
			run(c)
		}
		return
	}

	var (
		next atomic.Int64
		stop atomic.Bool
		box  panicBox
	)
	worker := func() {
		for !stop.Load() {
			if e.canceled() {
				stop.Store(true)
				return
			}
			c := int(next.Add(1) - 1)
			if c >= chunks {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						box.record(c, r)
						stop.Store(true)
					}
				}()
				run(c)
			}()
		}
	}

	var wg sync.WaitGroup
	maxHelpers := chunks - 1
	if m := e.workers - 1; m < maxHelpers {
		maxHelpers = m
	}
	for h := 0; h < maxHelpers; h++ {
		if !e.acquireHelper() {
			break // budget exhausted: the caller and existing helpers finish the grid
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer e.releaseHelper()
			worker()
		}()
	}
	worker()
	wg.Wait()
	box.rethrow()
	if e.canceled() {
		if claimed := int(next.Load()); claimed < chunks {
			obsLoopsCanceled.Inc()
			obsChunksAbandoned.Add(int64(chunks - claimed))
		}
	}
}

// acquireHelper takes one slot from the engine budget and one from the
// process-wide pool, without blocking. Either being empty means the
// machine (or this engine) is saturated and the work runs on the
// goroutines already going.
func (e *Engine) acquireHelper() bool {
	select {
	case <-e.helpers:
	default:
		obsHelperDenied.Inc()
		return false
	}
	select {
	case <-tokens:
		obsHelpers.Inc()
		return true
	default:
		e.helpers <- struct{}{}
		obsHelperDenied.Inc()
		return false
	}
}

func (e *Engine) releaseHelper() {
	tokens <- struct{}{}
	e.helpers <- struct{}{}
}

// ForEachIndex invokes fn(i) for every i in [0,n), one index per chunk.
// Use it for coarse-grained independent tasks (a k-sweep, k-means
// restarts, one workload per index) where each task writes only to its
// own result slot.
func (e *Engine) ForEachIndex(n int, fn func(i int)) {
	e.ForEachChunk(n, 1, func(_, lo, _ int) { fn(lo) })
}

// ForEachIndexErr runs fn(i) for every i in [0,n) and returns the error
// of the lowest failing index (deterministic regardless of scheduling),
// or nil. All indices run even if an early one fails; a panicking index
// propagates as a panic, never as a deadlock. On a context-bound engine
// whose context ends mid-loop, the context error is returned (also
// deterministic: cancellation always wins over per-index errors, since
// an abandoned loop has an incomplete error set).
func (e *Engine) ForEachIndexErr(n int, fn func(i int) error) error {
	return e.ForEachChunkErr(n, 1, func(lo, _ int) error { return fn(lo) })
}

// ForEachChunkErr is ForEachIndexErr over the fixed chunk grid of
// ForEachChunk: fn(lo, hi) runs for every chunk, and the error of the
// lowest failing chunk is returned. A fn that stops at the first defect
// in its range therefore yields the error a serial scan of [0,n) would
// return, at any worker count.
func (e *Engine) ForEachChunkErr(n, chunkSize int, fn func(lo, hi int) error) error {
	chunks := Chunks(n, chunkSize)
	if chunks == 0 {
		return nil
	}
	errs := make([]error, chunks)
	e.ForEachChunk(n, chunkSize, func(c, lo, hi int) { errs[c] = fn(lo, hi) })
	if err := e.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapReduce computes a per-chunk partial with mapFn over the fixed grid
// and folds the partials in chunk index order with merge. Because the
// grid and the merge order are worker-independent, floating-point
// reductions come out bit-for-bit identical for every worker count.
// The zero value of T seeds the fold: acc = merge(acc, part_c) for
// c = 0..chunks-1. On a context-bound engine the fold still runs over
// whatever partials completed; callers must check e.Err() and discard
// the value when it is non-nil.
func MapReduce[T any](e *Engine, n, chunkSize int, mapFn func(chunk, lo, hi int) T, merge func(acc, part T) T) T {
	var acc T
	chunks := Chunks(n, chunkSize)
	if chunks == 0 {
		return acc
	}
	parts := make([]T, chunks)
	e.ForEachChunk(n, chunkSize, func(c, lo, hi int) { parts[c] = mapFn(c, lo, hi) })
	for _, p := range parts {
		acc = merge(acc, p)
	}
	return acc
}
