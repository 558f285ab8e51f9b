package obs

import (
	"sync"
	"time"
)

// collector owns the span tree StartRun opens. Its lock guards every
// append and End in the tree, so stages on several goroutines may
// record into it at once. Where in the tree a span lands is decided
// by the context it is opened with, never by the goroutine that opens
// it.
type collector struct {
	t0 time.Time

	mu   sync.Mutex
	root *Span
}

// newCollector opens a tree rooted at a span named rootName.
func newCollector(rootName string) *collector {
	now := time.Now()
	c := &collector{t0: now}
	c.root = &Span{Name: rootName, GID: curGID(), start: now, col: c}
	return c
}

// open appends a child to parent, or returns nil when the parent has
// ended.
func (c *collector) open(parent *Span, name string) *Span {
	gid := curGID()
	c.mu.Lock()
	defer c.mu.Unlock()
	if parent.ended {
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
