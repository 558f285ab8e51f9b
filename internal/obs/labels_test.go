package obs

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestVecBasics: children are per-label-tuple, reused on repeat lookups
// and independent across tuples.
func TestVecBasics(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()

	cv := r.CounterVec("req", "requests", "route", "status")
	cv.With("/a", "200").Add(3)
	cv.With("/a", "200").Inc()
	cv.With("/a", "500").Inc()
	if got := cv.With("/a", "200").Value(); got != 4 {
		t.Fatalf("child value = %d, want 4", got)
	}
	if got := cv.With("/a", "500").Value(); got != 1 {
		t.Fatalf("child value = %d, want 1", got)
	}

	hv := r.HistogramVec("lat", "", []string{"route"}, 1, 10)
	hv.With("/a").Observe(0.5)
	hv.With("/a").Observe(5)
	hv.With("/b").Observe(100)
	if got := hv.With("/a").Count(); got != 2 {
		t.Fatalf("hist child count = %d, want 2", got)
	}
}

// TestVecDisabledReturnsNil: the disabled path hands out nil children
// whose methods no-op, and records nothing.
func TestVecDisabledReturnsNil(t *testing.T) {
	Disable()
	r := NewRegistry()
	cv := r.CounterVec("req", "", "route")
	if c := cv.With("/a"); c != nil {
		t.Fatalf("disabled With returned %v, want nil", c)
	}
	cv.With("/a").Inc() // must not panic
	Enable()
	defer Disable()
	if got := cv.With("/a").Value(); got != 0 {
		t.Fatalf("disabled increment leaked a count: %d", got)
	}
}

// TestVecRegistrationIdempotent: the same name returns the same family.
func TestVecRegistrationIdempotent(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	a := r.CounterVec("same", "", "l")
	b := r.CounterVec("same", "other help ignored", "l")
	if a != b {
		t.Fatal("re-registration returned a different vec")
	}
	a.With("x").Inc()
	if got := b.With("x").Value(); got != 1 {
		t.Fatalf("aliased vec sees %d, want 1", got)
	}
}

// TestVecCardinalityBound: beyond maxCardinality distinct tuples, new
// tuples collapse into the shared overflow child instead of growing.
func TestVecCardinalityBound(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	cv := r.CounterVec("tenants", "", "tenant")
	for i := 0; i < maxCardinality+50; i++ {
		cv.With(fmt.Sprintf("t%04d", i)).Inc()
	}
	cv.set.mu.Lock()
	n := len(cv.set.keys)
	cv.set.mu.Unlock()
	if n > maxCardinality+1 {
		t.Fatalf("vec grew to %d children, bound is %d(+overflow)", n, maxCardinality)
	}
	if got := cv.With(overflowLabel).Value(); got < 50 {
		t.Fatalf("overflow child absorbed %d, want >= 50", got)
	}
	// A pre-bound tuple still resolves to its own child.
	if got := cv.With("t0001").Value(); got != 1 {
		t.Fatalf("pre-bound child = %d, want 1", got)
	}
}

// TestVecLabelArityPanics: a wrong-arity tuple is a programming error.
func TestVecLabelArityPanics(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	cv := r.CounterVec("req", "", "route", "status")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	cv.With("only-one")
}

// TestSnapshotLabeledOrdering: the snapshot is sorted by name, kind,
// then the canonical sorted label-pair key — and the order is identical
// no matter the insertion order.
func TestSnapshotLabeledOrdering(t *testing.T) {
	Enable()
	defer Disable()
	for trial := 0; trial < 2; trial++ {
		r := NewRegistry()
		cv := r.CounterVec("req", "", "route", "status")
		hv := r.HistogramVec("lat", "", []string{"route"}, 1, 10)
		c := r.Counter("alpha", "")
		if trial == 0 {
			cv.With("/b", "200").Inc()
			cv.With("/a", "500").Inc()
			cv.With("/a", "200").Inc()
			hv.With("/z").Observe(1)
			hv.With("/a").Observe(2)
			c.Inc()
		} else {
			c.Inc()
			hv.With("/a").Observe(2)
			cv.With("/a", "200").Inc()
			hv.With("/z").Observe(1)
			cv.With("/a", "500").Inc()
			cv.With("/b", "200").Inc()
		}
		snap := r.Snapshot()
		var got []string
		for _, m := range snap {
			got = append(got, m.Name+"|"+m.Kind+"|"+m.LabelsKey())
		}
		want := []string{
			"alpha|counter|",
			"lat|histogram|route=/a",
			"lat|histogram|route=/z",
			"req|counter|route=/a,status=200",
			"req|counter|route=/a,status=500",
			"req|counter|route=/b,status=200",
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: snapshot has %d metrics %v, want %d", trial, len(got), got, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: snapshot[%d] = %q, want %q", trial, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotOrderingUnderConcurrency: ordering stays sorted while
// children are being created and incremented concurrently.
func TestSnapshotOrderingUnderConcurrency(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	cv := r.CounterVec("req", "", "route")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				cv.With(fmt.Sprintf("/r%d", (w*7+i)%20)).Inc()
				i++
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if !sort.SliceIsSorted(snap, func(a, b int) bool {
			if snap[a].Name != snap[b].Name {
				return snap[a].Name < snap[b].Name
			}
			if snap[a].Kind != snap[b].Kind {
				return snap[a].Kind < snap[b].Kind
			}
			return snap[a].LabelsKey() < snap[b].LabelsKey()
		}) {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d not sorted", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestVecReset: Reset zeroes children but keeps handles valid.
func TestVecReset(t *testing.T) {
	Enable()
	defer Disable()
	r := NewRegistry()
	cv := r.CounterVec("req", "", "route")
	hv := r.HistogramVec("lat", "", []string{"route"}, 1)
	child := cv.With("/a")
	child.Add(5)
	hv.With("/a").Observe(0.5)
	r.Reset()
	if got := child.Value(); got != 0 {
		t.Fatalf("reset child = %d, want 0", got)
	}
	if got := hv.With("/a").Count(); got != 0 {
		t.Fatalf("reset hist child count = %d, want 0", got)
	}
	child.Inc()
	if got := cv.With("/a").Value(); got != 1 {
		t.Fatalf("post-reset handle records %d, want 1", got)
	}
}
