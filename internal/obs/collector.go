package obs

import (
	"context"
	"sync"
	"time"
)

// Collector owns one span tree: the run tree StartRun opens, or a
// request-scoped tree a server attaches to each request's context. Its
// lock guards every append, End and SetAttr in the tree, so stages on
// several goroutines may record into it at once. Which tree a span
// lands in is decided by the context it is opened with, never by the
// goroutine that opens it.
type Collector struct {
	t0 time.Time

	mu   sync.Mutex
	root *Span
	done bool // detached: the tree is final
}

// newCollector opens a tree rooted at a span named rootName.
func newCollector(rootName string) *Collector {
	now := time.Now()
	c := &Collector{t0: now}
	c.root = &Span{Name: rootName, GID: curGID(), start: now, col: c}
	return c
}

// AttachCollector opens a new span tree and returns ctx carrying its
// root, so StartSpan calls under the returned context land in this tree
// instead of the run's. It returns ctx unchanged and a nil collector
// while telemetry is disabled; nil collectors no-op on Detach, so call
// sites need no guards.
func AttachCollector(ctx context.Context, rootName string) (context.Context, *Collector) {
	if !enabled.Load() {
		return ctx, nil
	}
	c := newCollector(rootName)
	return ContextWithSpan(ctx, c.root), c
}

// Detach finalizes the tree and returns it. Any spans still open
// (including the root) are closed at the detach time, so a handler that
// panicked mid-stage still yields a coherent tree; spans opened, ended
// or annotated afterwards are ignored, so the returned tree no longer
// changes. Safe to call from any goroutine, and idempotent.
func (c *Collector) Detach() *Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.root.Walk(func(s *Span, _ int) { s.close(now) })
	c.done = true
	return c.root
}

// open appends a child to parent, or returns nil when the tree is
// detached or the parent has ended.
func (c *Collector) open(parent *Span, name string) *Span {
	gid := curGID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || parent.ended {
		return nil
	}
	now := time.Now()
	s := &Span{
		Name:    name,
		StartNS: now.Sub(c.t0).Nanoseconds(),
		GID:     gid,
		start:   now,
		col:     c,
	}
	parent.Children = append(parent.Children, s)
	return s
}
