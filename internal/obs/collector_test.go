package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestCollectorDisabledReturnsNil(t *testing.T) {
	Disable()
	defer Disable()
	ctx := context.Background()
	got, c := AttachCollector(ctx, "req")
	if c != nil || got != ctx {
		t.Fatalf("AttachCollector while disabled = (%v, %v), want (ctx, nil)", got, c)
	}
	if got := c.Detach(); got != nil {
		t.Fatalf("nil Collector.Detach() = %v, want nil", got)
	}
}

func TestCollectorCapturesSpanTree(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req-1")
	if c == nil {
		t.Fatal("AttachCollector returned nil while enabled")
	}
	actx, a := StartSpan(ctx, "stage.a")
	_, aa := StartSpan(actx, "stage.a.inner")
	aa.End()
	a.End()
	_, b := StartSpan(ctx, "stage.b")
	b.End()
	root := c.Detach()

	if root == nil || root.Name != "req-1" {
		t.Fatalf("root = %+v, want name req-1", root)
	}
	if len(root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(root.Children))
	}
	if root.Children[0].Name != "stage.a" || root.Children[1].Name != "stage.b" {
		t.Fatalf("children = %q, %q", root.Children[0].Name, root.Children[1].Name)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Name != "stage.a.inner" {
		t.Fatalf("nested child missing: %+v", root.Children[0].Children)
	}
	if root.DurNS <= 0 {
		t.Fatalf("root DurNS = %d, want > 0 (closed at detach)", root.DurNS)
	}
	// Spans after detach must not resurrect the collector's tree.
	if _, s := StartSpan(ctx, "stage.after"); s != nil {
		t.Fatalf("StartSpan in a detached tree = %+v, want nil", s)
	}
	if len(root.Children) != 2 {
		t.Fatalf("detached tree grew to %d children", len(root.Children))
	}
	// Without a request context and without a run there is no parent.
	if _, s := StartSpan(context.Background(), "stage.orphan"); s != nil {
		t.Fatalf("StartSpan with no run and no span in ctx = %+v, want nil", s)
	}
}

func TestCollectorDoesNotTouchGlobalRun(t *testing.T) {
	Enable()
	defer Disable()

	run := StartRun("global-run")
	ctx, c := AttachCollector(context.Background(), "req")
	_, s := StartSpan(ctx, "req.stage")
	s.End()
	c.Detach()
	_, g := StartSpan(context.Background(), "global.stage")
	g.End()
	run.End()

	tree := SpanTree()
	if tree == nil || tree.Name != "global-run" {
		t.Fatalf("global tree = %+v", tree)
	}
	if len(tree.Children) != 1 || tree.Children[0].Name != "global.stage" {
		t.Fatalf("global children = %+v, want only global.stage", tree.Children)
	}
}

func TestCollectorConcurrentIsolation(t *testing.T) {
	Enable()
	defer Disable()

	const goroutines = 16
	roots := make([]*Span, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, c := AttachCollector(context.Background(), "req")
			for j := 0; j < 8; j++ {
				sctx, s := StartSpan(ctx, "stage")
				_, inner := StartSpan(sctx, "inner")
				inner.End()
				s.End()
			}
			roots[i] = c.Detach()
		}(i)
	}
	wg.Wait()
	for i, r := range roots {
		if r == nil {
			t.Fatalf("goroutine %d: nil root", i)
		}
		if len(r.Children) != 8 {
			t.Fatalf("goroutine %d: %d children, want 8 (cross-request leak?)", i, len(r.Children))
		}
		for _, s := range r.Children {
			if len(s.Children) != 1 || s.Children[0].Name != "inner" {
				t.Fatalf("goroutine %d: stage children = %+v, want one inner", i, s.Children)
			}
		}
	}
}

func TestCollectorDetachIdempotent(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	_, s := StartSpan(ctx, "stage")
	first := c.Detach()
	dur := s.DurNS
	second := c.Detach()
	if first == nil || second != first {
		t.Fatalf("Detach not idempotent: first=%p second=%p", first, second)
	}
	// The open span was closed at detach; a late End or SetAttr must not
	// change the finalized tree.
	if dur <= 0 {
		t.Fatalf("open span DurNS = %d after detach, want > 0", dur)
	}
	s.End()
	s.SetAttr("late", "1")
	if s.DurNS != dur || s.Attrs != nil {
		t.Fatalf("detached span changed: dur %d→%d attrs %v", dur, s.DurNS, s.Attrs)
	}
}

// TestCollectorCtxHandOff hands a request's span to another goroutine
// through a context, the way simprofd's batch flush executes a
// request's flight: the spans it opens land in the request tree, under
// the handed span.
func TestCollectorCtxHandOff(t *testing.T) {
	Enable()
	defer Disable()

	ctx, c := AttachCollector(context.Background(), "req")
	_, do := StartSpan(ctx, "batch.do")
	done := make(chan struct{})
	go func() {
		defer close(done)
		flight := ContextWithSpan(context.Background(), do)
		_, s := StartSpan(flight, "batch.exec")
		s.End()
	}()
	<-done
	do.End()

	root := c.Detach()
	if len(root.Children) != 1 || root.Children[0].Name != "batch.do" {
		t.Fatalf("request children = %+v, want batch.do", root.Children)
	}
	if got := root.Children[0].Children; len(got) != 1 || got[0].Name != "batch.exec" {
		t.Fatalf("batch.do children = %+v, want the handed-off batch.exec", got)
	}
}

func TestContextWithSpanNil(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatalf("ContextWithSpan(ctx, nil) = %v, want ctx unchanged", got)
	}
}

// TestSpansNestByContext pins the concurrency contract of span
// nesting: the parent is the span in the opening context, never
// whatever span happens to be open elsewhere in the process.
func TestSpansNestByContext(t *testing.T) {
	Enable()
	defer Disable()

	root := StartRun("run")
	ctx, a := StartSpan(context.Background(), "a")

	// A span opened on another goroutine with a span-less context is a
	// child of the run root, not of a (open on this goroutine), and it
	// does not capture spans this goroutine opens meanwhile.
	opened := make(chan *Span)
	go func() {
		_, w := StartSpan(context.Background(), "worker")
		opened <- w
	}()
	w := <-opened
	_, a1 := StartSpan(ctx, "a1")
	a1.End()
	a.End()
	w.End()
	// A span opened after its sibling closed is not nested under it.
	_, b := StartSpan(context.Background(), "b")
	b.End()
	root.End()

	var got []string
	SpanTree().Walk(func(sp *Span, depth int) {
		got = append(got, strings.Repeat(">", depth)+sp.Name)
	})
	want := "run >a >>a1 >worker >b"
	if g := strings.Join(got, " "); g != want {
		t.Fatalf("span tree %q, want %q", g, want)
	}
	// A closed span accepts no children.
	if _, late := StartSpan(ctx, "late"); late != nil {
		t.Fatalf("StartSpan under an ended span = %+v, want nil", late)
	}
}
