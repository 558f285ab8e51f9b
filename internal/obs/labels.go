package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labeled metric families. A *Vec is a family of children sharing one
// name and a fixed set of label names; each distinct label-value tuple
// owns an independent child. The families obey the same two contracts
// as the scalar metrics:
//
//   - disabled telemetry is free: With gates on the enabled flag before
//     touching the children map and returns nil, and every child method
//     no-ops on a nil receiver, so a disabled call is an atomic load, a
//     branch and nothing else (0 allocs/op, benchmarked);
//   - snapshots are deterministic: children serialize sorted by family
//     name, then kind, then the canonical sorted label-pair key.
//
// Cardinality is bounded: a vec holds at most maxCardinality distinct
// children. Once the bound is hit, new label tuples collapse into one
// overflow child whose every label value is "~overflow" — a service fed
// hostile label values (tenant names, say) degrades to one coarse
// series instead of growing telemetry state without limit.

// maxCardinality bounds the distinct children of one vec.
const maxCardinality = 256

// overflowLabel is the label value of the shared overflow child.
const overflowLabel = "~overflow"

// cardinalityOverflows tallies, across every vec in the process, each
// observation whose (previously unseen) label tuple collapsed into the
// overflow child. The tally feeds both the CardinalityOverflows
// accessor and the obs.cardinality_overflow self-metric, so a service
// under label-value abuse shows the damage on /metrics instead of
// silently coarsening.
var cardinalityOverflows atomic.Int64

var overflowCounter = NewCounter("obs.cardinality_overflow",
	"observations collapsed into a vec's ~overflow child because the cardinality bound was hit")

// CardinalityOverflows returns the process-wide count of observations
// that collapsed into an overflow child.
func CardinalityOverflows() int64 { return cardinalityOverflows.Load() }

// LabelPair is one name=value label on a snapshotted metric.
type LabelPair struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// labelSet is the shared bookkeeping of a vec: the fixed label names
// and the children keyed by joined label values.
type labelSet struct {
	labels []string
	mu     sync.Mutex
	keys   []string // insertion-ordered child keys
	values map[string][]string
}

// childKey joins label values into a map key. \xff cannot appear in a
// UTF-8 label value's byte stream as a separator collision risk worth
// worrying about; collisions would only merge two children's counts.
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

// resolve validates the tuple arity and applies the cardinality bound:
// it returns the canonical key for the tuple (or the overflow key) and
// whether the tuple is new. Callers hold ls.mu.
func (ls *labelSet) resolve(values []string) (string, bool) {
	if len(values) != len(ls.labels) {
		panic("obs: label value count does not match the vec's label names")
	}
	k := childKey(values)
	if _, ok := ls.values[k]; ok {
		return k, false
	}
	if len(ls.keys) >= maxCardinality {
		cardinalityOverflows.Add(1)
		overflowCounter.Add(1)
		ov := make([]string, len(ls.labels))
		for i := range ov {
			ov[i] = overflowLabel
		}
		k = childKey(ov)
		if _, ok := ls.values[k]; ok {
			return k, false
		}
		values = ov
	}
	stored := make([]string, len(values))
	copy(stored, values)
	ls.keys = append(ls.keys, k)
	ls.values[k] = stored
	return k, true
}

// pairs converts a stored value tuple to snapshot label pairs in the
// registered label-name order.
func (ls *labelSet) pairs(values []string) []LabelPair {
	out := make([]LabelPair, len(ls.labels))
	for i, n := range ls.labels {
		out[i] = LabelPair{Name: n, Value: values[i]}
	}
	return out
}

// CounterVec is a labeled family of counters.
type CounterVec struct {
	name, help string
	set        labelSet
	children   map[string]*Counter
}

// HistogramVec is a labeled family of fixed-bucket histograms. All
// children share the family's bounds.
type HistogramVec struct {
	name, help string
	bounds     []float64
	set        labelSet
	children   map[string]*Histogram
}

// CounterVec registers (or returns the existing) counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counterVecs[name]; ok {
		return v
	}
	v := &CounterVec{name: name, help: help, children: map[string]*Counter{}}
	v.set = labelSet{labels: append([]string(nil), labels...), values: map[string][]string{}}
	r.counterVecs[name] = v
	return v
}

// HistogramVec registers (or returns the existing) histogram family.
// bounds must be sorted ascending, as for Histogram.
func (r *Registry) HistogramVec(name, help string, labels []string, bounds ...float64) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histVecs[name]; ok {
		return v
	}
	v := &HistogramVec{
		name: name, help: help,
		bounds:   append([]float64(nil), bounds...),
		children: map[string]*Histogram{},
	}
	v.set = labelSet{labels: append([]string(nil), labels...), values: map[string][]string{}}
	r.histVecs[name] = v
	return v
}

// NewCounterVec registers a counter family on the default registry.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return defaultRegistry.CounterVec(name, help, labels...)
}

// NewHistogramVec registers a histogram family on the default registry.
func NewHistogramVec(name, help string, labels []string, bounds ...float64) *HistogramVec {
	return defaultRegistry.HistogramVec(name, help, labels, bounds...)
}

// With returns the child for the label-value tuple, creating it on
// first use. Disabled telemetry (or a nil vec) returns nil, whose
// methods no-op — the disabled path never touches the children map and
// never allocates.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil || !enabled.Load() {
		return nil
	}
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	k, fresh := v.set.resolve(values)
	if fresh {
		v.children[k] = &Counter{name: v.name, help: v.help}
	}
	return v.children[k]
}

// With returns the histogram child for the label-value tuple (nil while
// telemetry is disabled; see CounterVec.With).
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil || !enabled.Load() {
		return nil
	}
	v.set.mu.Lock()
	defer v.set.mu.Unlock()
	k, fresh := v.set.resolve(values)
	if fresh {
		v.children[k] = &Histogram{
			name: v.name, help: v.help,
			bounds: v.bounds,
			counts: make([]atomic.Int64, len(v.bounds)+1),
		}
	}
	return v.children[k]
}

// LabelsKey returns the metric's canonical label identity: "k=v,k=v"
// with pairs sorted by label name (then value). Unlabeled metrics
// return "". Snapshot ordering and history diff keys use it so labeled
// children never collide or reorder across runs.
func (m Metric) LabelsKey() string {
	if len(m.Labels) == 0 {
		return ""
	}
	ps := append([]LabelPair(nil), m.Labels...)
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].Name != ps[b].Name {
			return ps[a].Name < ps[b].Name
		}
		return ps[a].Value < ps[b].Value
	})
	var sb strings.Builder
	for i, p := range ps {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.Name)
		sb.WriteByte('=')
		sb.WriteString(p.Value)
	}
	return sb.String()
}
