package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
)

// TestCollectorConcurrentIsolation: goroutines recording into the one
// run tree at once each get exactly their own subtree — the
// collector's lock serializes the appends, and nesting follows each
// goroutine's context.
func TestCollectorConcurrentIsolation(t *testing.T) {
	Enable()
	defer Disable()

	root := StartRun("run")
	const goroutines = 16
	stages := make([]*Span, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, s := StartSpan(context.Background(), "stage")
			for j := 0; j < 8; j++ {
				_, inner := StartSpan(ctx, "inner")
				inner.End()
			}
			s.End()
			stages[i] = s
		}(i)
	}
	wg.Wait()
	root.End()
	if len(root.Children) != goroutines {
		t.Fatalf("run has %d children, want %d", len(root.Children), goroutines)
	}
	for i, s := range stages {
		if len(s.Children) != 8 {
			t.Fatalf("goroutine %d: %d children, want 8 (cross-goroutine leak?)", i, len(s.Children))
		}
		for _, c := range s.Children {
			if c.Name != "inner" || len(c.Children) != 0 {
				t.Fatalf("goroutine %d: child %+v, want a leaf inner", i, c)
			}
		}
	}
}

// TestCollectorCtxHandOff hands a span's context to another
// goroutine, the way a stage passes its context to work it runs
// concurrently: the spans that work opens land under the handed span,
// not under the run root.
func TestCollectorCtxHandOff(t *testing.T) {
	Enable()
	defer Disable()

	root := StartRun("run")
	ctx, stage := StartSpan(context.Background(), "stage")
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, s := StartSpan(ctx, "stage.worker")
		s.End()
	}()
	<-done
	stage.End()
	root.End()

	if len(root.Children) != 1 || root.Children[0].Name != "stage" {
		t.Fatalf("run children = %+v, want stage", root.Children)
	}
	if got := root.Children[0].Children; len(got) != 1 || got[0].Name != "stage.worker" {
		t.Fatalf("stage children = %+v, want the handed-off stage.worker", got)
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
