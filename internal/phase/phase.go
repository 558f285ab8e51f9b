// Package phase implements SimProf's phase formation (§III-B): sampling
// units are vectorized into method-frequency feature vectors from their
// call-stack snapshots, the methods most correlated with IPC are
// selected with a univariate linear-regression test, and k-means with
// silhouette-based k selection groups the units into phases. The package
// also provides the homogeneity (CoV) analysis of §III-B.1 and the
// phase-type classification behind Fig. 10.
package phase

import (
	"context"
	"fmt"
	"math"
	"sort"

	"simprof/internal/cluster"
	"simprof/internal/matrix"
	"simprof/internal/model"
	"simprof/internal/obs"
	"simprof/internal/parallel"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// Phase-formation telemetry: stage spans cover the sequential pipeline
// stages; counters record how many units entered formation and how many
// were fenced out as degraded.
var (
	obsFormRuns = obs.NewCounter("phase.form_runs",
		"phase formations run")
	obsFormUnits = obs.NewCounter("phase.units",
		"sampling units entering phase formation")
	obsFormDegraded = obs.NewCounter("phase.degraded_units",
		"degraded units classified onto formed centers instead of trained on")
	obsVecNNZ = obs.NewCounter("phase.vectorize_nnz",
		"nonzero cells stored by sparse vectorization")
	obsVecCells = obs.NewCounter("phase.vectorize_cells",
		"full-space cells a dense vectorization would have materialized")
	obsFreqAdopted = obs.NewCounter("phase.freq_adopted",
		"formations that adopted a decoder-attached frequency matrix instead of vectorizing")
)

// Options controls phase formation. Zero values select the paper's
// parameters.
type Options struct {
	TopK                int     // methods kept by feature selection (paper: 100)
	MaxPhases           int     // k sweep upper bound (paper: 20)
	SilhouetteThreshold float64 // fraction of best silhouette accepted (default 0.93)
	Seed                uint64
	// Restarts and MaxIter bound the k-means work per swept k. Zero
	// selects the clustering defaults (4 restarts, 100 iterations),
	// which reproduce the paper's runs; interactive callers profiling
	// very large traces can trade refinement for latency here.
	Restarts int
	MaxIter  int
	// Workers bounds the concurrency of the whole formation pipeline
	// (vectorization, feature scoring, the k sweep and its restarts).
	// 0 selects GOMAXPROCS; 1 runs serially. The formed phases are
	// bit-for-bit identical for every setting.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.TopK <= 0 {
		o.TopK = 100
	}
	if o.MaxPhases <= 0 {
		o.MaxPhases = 20
	}
	if o.SilhouetteThreshold <= 0 {
		// Slightly above the paper's 90%: our simplified-silhouette
		// scores saturate for coarse splits, and 93% recovers the same
		// phase granularity the paper reports (see DESIGN.md).
		o.SilhouetteThreshold = 0.93
	}
	return o
}

// FeatureSpace is the selected method dimensions, identified by FQN so
// that traces from different runs (whose method tables may intern in a
// different order) can be vectorized consistently.
type FeatureSpace struct {
	Methods []string     // FQN per dimension
	Kinds   []model.Kind // kind per dimension
}

// Dim returns the dimensionality.
func (fs *FeatureSpace) Dim() int { return len(fs.Methods) }

// Vectorize converts every unit of the trace into this feature space:
// dimension j counts how many snapshot stack frames in the unit refer to
// method j. Units vectorize independently on the shared worker pool;
// each unit writes only its own row, so the output is identical for any
// worker count.
func (fs *FeatureSpace) Vectorize(tr *trace.Trace) [][]float64 {
	return fs.vectorizeWith(parallel.Default(), tr)
}

// unitChunk is the fixed per-chunk unit count of the vectorization and
// projection loops.
const unitChunk = 64

func (fs *FeatureSpace) vectorizeWith(eng *parallel.Engine, tr *trace.Trace) [][]float64 {
	dimOf := make(map[string]int, len(fs.Methods))
	for j, fqn := range fs.Methods {
		dimOf[fqn] = j
	}
	// Map the trace's method ids to dims once.
	idToDim := make([]int, len(tr.Methods))
	for i, m := range tr.Methods {
		if j, ok := dimOf[m.FQN()]; ok {
			idToDim[i] = j
		} else {
			idToDim[i] = -1
		}
	}
	out := make([][]float64, len(tr.Units))
	eng.ForEachChunk(len(tr.Units), unitChunk, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			v := make([]float64, len(fs.Methods))
			for _, snap := range tr.Units[u].Snapshots {
				for _, id := range snap {
					if int(id) < len(idToDim) {
						if j := idToDim[id]; j >= 0 {
							v[j]++
						}
					}
				}
			}
			out[u] = v
		}
	})
	return out
}

// VectorizeSparse converts every unit of the trace into this feature
// space as a CSR matrix: row u holds the same counts Vectorize's row u
// would, but stores only the methods the unit actually touched — a
// handful of stack frames out of the whole interned table. Cell values
// are integer counts accumulated in the same snapshot order as
// Vectorize, so the stored numbers are bit-identical to the dense
// vectorization's nonzero cells.
func (fs *FeatureSpace) VectorizeSparse(tr *trace.Trace) *matrix.Sparse {
	dimOf := make(map[string]int, len(fs.Methods))
	for j, fqn := range fs.Methods {
		dimOf[fqn] = j
	}
	idToDim := make([]int, len(tr.Methods))
	for i, m := range tr.Methods {
		if j, ok := dimOf[m.FQN()]; ok {
			idToDim[i] = j
		} else {
			idToDim[i] = -1
		}
	}
	d := len(fs.Methods)
	b := matrix.NewSparseBuilder(d, len(tr.Units), 8*len(tr.Units))
	counts := make([]float64, d) // scratch: zero ⇔ untouched this unit
	touched := make([]int32, 0, 64)
	vals := make([]float64, 0, 64)
	for u := range tr.Units {
		touched = touched[:0]
		for _, snap := range tr.Units[u].Snapshots {
			for _, id := range snap {
				if int(id) < len(idToDim) {
					if j := idToDim[id]; j >= 0 {
						if counts[j] == 0 {
							touched = append(touched, int32(j))
						}
						counts[j]++
					}
				}
			}
		}
		sort.Slice(touched, func(a, b int) bool { return touched[a] < touched[b] })
		vals = vals[:0]
		for _, j := range touched {
			vals = append(vals, counts[j])
			counts[j] = 0
		}
		b.AppendRow(touched, vals)
	}
	return b.Build()
}

// fullFreqMatrix returns the trace's full-method-space frequency CSR,
// adopting the matrix a columnar decoder attached (tracebin stores it as
// three file sections, so "vectorizing" is free) whenever it provably
// equals what VectorizeSparse(fullSpace) would build: the dimensions
// must match the trace, and the method FQNs must be unique — the
// FQN-keyed vectorizer collapses duplicate FQNs onto one dimension,
// while the decoder's matrix is keyed by method id, so a table with
// duplicates must take the slow path to stay bit-identical.
func fullFreqMatrix(full *FeatureSpace, tr *trace.Trace) *matrix.Sparse {
	if sp := tr.Freq(); sp != nil &&
		sp.Rows() == len(tr.Units) && sp.Cols() == len(tr.Methods) &&
		uniqueStrings(full.Methods) {
		obsFreqAdopted.Inc()
		return sp
	}
	return full.VectorizeSparse(tr)
}

func uniqueStrings(ss []string) bool {
	seen := make(map[string]struct{}, len(ss))
	for _, s := range ss {
		if _, dup := seen[s]; dup {
			return false
		}
		seen[s] = struct{}{}
	}
	return true
}

// fullSpace builds the all-methods feature space of a trace.
func fullSpace(tr *trace.Trace) *FeatureSpace {
	fs := &FeatureSpace{
		Methods: make([]string, len(tr.Methods)),
		Kinds:   make([]model.Kind, len(tr.Methods)),
	}
	for i, m := range tr.Methods {
		fs.Methods[i] = m.FQN()
		fs.Kinds[i] = m.Kind
	}
	return fs
}

// Phases is the result of phase formation on a training trace.
type Phases struct {
	Trace   *trace.Trace
	Space   *FeatureSpace // selected feature space
	Vectors [][]float64   // unit vectors in the selected space
	K       int
	Assign  []int       // unit → phase
	Centers [][]float64 // phase centers in the selected space

	// Degraded marks units whose observation is incomplete (effective
	// quality flags set). Degraded units are excluded from feature
	// selection and clustering and classified onto the formed centers
	// afterwards; they keep a phase assignment (their instructions were
	// executed, so phase weights must count them) but contribute no CPI
	// to per-phase statistics.
	Degraded []bool

	Silhouette float64   // silhouette at the chosen k
	KScores    []float64 // silhouette per swept k (index 0 ↔ k=1)
	FScores    []float64 // regression score of each selected dimension

	// unitsByPhase is the per-phase unit index list, built once at Form
	// time so the per-phase accessors cost O(phase size) instead of
	// rescanning all N assignments on every call (formerly O(N·K) when
	// iterated over phases). Only the phase membership is cached —
	// measured status stays dynamic, because unit quality can legally
	// change after formation (tests degrade traces post-Form). A
	// zero-value Phases (hand-assembled in tests) leaves it nil and the
	// accessors fall back to the full scan.
	unitsByPhase [][]int
}

// buildIndex populates the per-phase unit lists from Assign: one
// counting pass sizes every list exactly, so no list is append-grown
// through log₂(N) reallocations on large traces.
func (p *Phases) buildIndex() {
	sizes := make([]int, p.K)
	for _, a := range p.Assign {
		sizes[a]++
	}
	p.unitsByPhase = make([][]int, p.K)
	for h, s := range sizes {
		p.unitsByPhase[h] = make([]int, 0, s)
	}
	for i, a := range p.Assign {
		p.unitsByPhase[a] = append(p.unitsByPhase[a], i)
	}
}

// Form runs the full phase-formation pipeline on a trace. Degraded
// units (lost counters, partial snapshots, truncated streams) are fenced
// out of the training statistics: features are selected and clusters
// formed on fully observed units only, then every degraded unit is
// classified onto the nearest resulting center. On a pristine trace
// this is bit-for-bit the historical pipeline.
func Form(tr *trace.Trace, opts Options) (*Phases, error) {
	return FormCtx(context.Background(), tr, opts)
}

// FormCtx is Form under a context: when ctx ends mid-formation the
// pipeline stops claiming new work (vectorization chunks, sweep tasks,
// restart passes), lets in-flight chunks finish, and returns the
// context error — an abandoned request stops burning CPU instead of
// running phase formation to completion for nobody. A successful
// FormCtx is bit-for-bit Form: cancellation either aborts the run with
// an error or changes nothing.
func FormCtx(ctx context.Context, tr *trace.Trace, opts Options) (*Phases, error) {
	o := opts.withDefaults()
	if len(tr.Units) == 0 {
		return nil, fmt.Errorf("phase: trace has no sampling units")
	}
	ctx, formSpan := obs.StartSpan(ctx, "phase.form")
	defer formSpan.End()
	obsFormRuns.Inc()
	obsFormUnits.Add(int64(len(tr.Units)))
	eng := parallel.New(o.Workers).WithContext(ctx)

	degraded := make([]bool, len(tr.Units))
	clean := make([]int, 0, len(tr.Units))
	for i := range tr.Units {
		if tr.EffectiveQuality(i).Degraded() {
			degraded[i] = true
		} else {
			clean = append(clean, i)
		}
	}
	if len(clean) == 0 {
		return nil, fmt.Errorf("phase: no fully observed sampling units (all %d degraded)", len(tr.Units))
	}

	// The full method space is vectorized sparse: a unit's snapshots
	// touch a handful of methods out of the whole interned table, so the
	// CSR form stores orders of magnitude fewer cells than the n×d dense
	// matrix the pipeline used to materialize here.
	_, vecSpan := obs.StartSpan(ctx, "phase.vectorize")
	full := fullSpace(tr)
	sp := fullFreqMatrix(full, tr)
	obsVecNNZ.Add(int64(sp.NNZ()))
	obsVecCells.Add(int64(sp.Rows()) * int64(sp.Cols()))
	vecSpan.End()
	// Univariate linear-regression feature selection against IPC, on
	// fully observed units only (a dropped counter is not IPC 0). The
	// sparse scorer walks stored nonzeros, never the full method space.
	_, selSpan := obs.StartSpan(ctx, "phase.feature_select")
	cleanIPC := make([]float64, len(clean))
	for k, i := range clean {
		cleanIPC[k] = tr.Units[i].Counters.IPC()
	}
	scores := stats.FRegressionSparseWith(eng, sp, clean, cleanIPC)
	if err := eng.Err(); err != nil {
		return nil, fmt.Errorf("phase: feature selection: %w", err)
	}
	top := stats.TopK(scores, o.TopK)
	space := &FeatureSpace{
		Methods: make([]string, len(top)),
		Kinds:   make([]model.Kind, len(top)),
	}
	fscores := make([]float64, len(top))
	for j, dim := range top {
		space.Methods[j] = full.Methods[dim]
		space.Kinds[j] = full.Kinds[dim]
		fscores[j] = scores[dim]
	}
	// Projection onto the selected dimensions goes straight from CSR to
	// a flat Dense the clustering kernels run on. Chunks of rows project
	// independently (each cell is written by exactly one chunk, no
	// reductions), so the result is bit-for-bit GatherColumnsDense at
	// every worker count.
	selected := matrix.NewDense(sp.Rows(), len(top))
	if len(top) > 0 {
		colMap := sp.ColMap(top)
		eng.ForEachChunk(sp.Rows(), unitChunk, func(_, lo, hi int) {
			sp.GatherColumnsInto(selected, colMap, lo, hi)
		})
		if err := eng.Err(); err != nil {
			return nil, fmt.Errorf("phase: projection: %w", err)
		}
	}
	// On a pristine trace every row trains, so the projection itself is
	// the training matrix — skip the 12MB-at-100k-units identity copy.
	cleanSelected := selected
	if len(clean) < len(tr.Units) {
		cleanSelected = selected.GatherRows(clean)
	}
	selSpan.End()
	_, clusterSpan := obs.StartSpan(ctx, "phase.cluster")
	sel, err := cluster.ChooseKDense(cleanSelected, cluster.ChooseKOptions{
		MaxK:      o.MaxPhases,
		Threshold: o.SilhouetteThreshold,
		KMeans:    cluster.Options{Seed: o.Seed, Restarts: o.Restarts, MaxIter: o.MaxIter},
		Workers:   o.Workers,
		Ctx:       ctx,
	})
	clusterSpan.End()
	if err != nil {
		return nil, fmt.Errorf("phase: clustering: %w", err)
	}
	assign := make([]int, len(tr.Units))
	for k, i := range clean {
		assign[i] = sel.Best.Assign[k]
	}
	// Classify degraded units onto the formed centers so they keep a
	// phase (and so phase weights reflect the whole execution). The
	// NearestSet shares one norm cache across every degraded unit and
	// matches NearestCenter bit-for-bit.
	obsFormDegraded.Add(int64(len(tr.Units) - len(clean)))
	if len(clean) < len(tr.Units) {
		ns := cluster.NewNearestSet(sel.Best.Centers)
		for i := range tr.Units {
			if degraded[i] {
				c, _ := ns.Nearest(selected.Row(i))
				assign[i] = c
			}
		}
	}
	p := &Phases{
		Trace:      tr,
		Space:      space,
		Vectors:    selected.RowViews(),
		K:          sel.K,
		Assign:     assign,
		Centers:    sel.Best.Centers,
		Degraded:   degraded,
		Silhouette: sel.ChosenScore,
		KScores:    sel.Scores,
		FScores:    fscores,
	}
	p.buildIndex()
	return p, nil
}

// PhaseUnits returns the unit indices of phase h.
func (p *Phases) PhaseUnits(h int) []int {
	if p.unitsByPhase != nil && h >= 0 && h < len(p.unitsByPhase) {
		return append([]int(nil), p.unitsByPhase[h]...)
	}
	var out []int
	for i, a := range p.Assign {
		if a == h {
			out = append(out, i)
		}
	}
	return out
}

// Sizes returns the unit count per phase.
func (p *Phases) Sizes() []int {
	out := make([]int, p.K)
	if p.unitsByPhase != nil {
		for h := range out {
			out[h] = len(p.unitsByPhase[h])
		}
		return out
	}
	for _, a := range p.Assign {
		out[a]++
	}
	return out
}

// Weights returns each phase's fraction of all sampling units.
func (p *Phases) Weights() []float64 {
	sizes := p.Sizes()
	out := make([]float64, p.K)
	n := float64(len(p.Assign))
	for h, s := range sizes {
		out[h] = float64(s) / n
	}
	return out
}

// PhaseCPIs returns the CPIs of the measured units in phase h. Units
// whose counters were lost contribute nothing — including them as CPI 0
// would crater the phase mean and inflate σ, which feeds Neyman
// allocation (Eq. 1) and the stratified SE (Eq. 4–5).
func (p *Phases) PhaseCPIs(h int) []float64 {
	if p.unitsByPhase != nil && h >= 0 && h < len(p.unitsByPhase) {
		out := make([]float64, 0, len(p.unitsByPhase[h]))
		for _, i := range p.unitsByPhase[h] {
			if p.UnitMeasured(i) {
				out = append(out, p.Trace.Units[i].CPI())
			}
		}
		return out
	}
	var out []float64
	for i, a := range p.Assign {
		if a == h && p.UnitMeasured(i) {
			out = append(out, p.Trace.Units[i].CPI())
		}
	}
	return out
}

// UnitMeasured reports whether unit i carries a usable CPI measurement:
// not flagged degraded at formation time and holding valid counters.
func (p *Phases) UnitMeasured(i int) bool {
	if p.Degraded != nil && p.Degraded[i] {
		return false
	}
	return p.Trace.Units[i].CPIValid()
}

// MeasuredPhaseUnits returns the unit indices of phase h that carry a
// usable CPI — the frame stratified sampling may draw from.
func (p *Phases) MeasuredPhaseUnits(h int) []int {
	if p.unitsByPhase != nil && h >= 0 && h < len(p.unitsByPhase) {
		out := make([]int, 0, len(p.unitsByPhase[h]))
		for _, i := range p.unitsByPhase[h] {
			if p.UnitMeasured(i) {
				out = append(out, i)
			}
		}
		return out
	}
	var out []int
	for i, a := range p.Assign {
		if a == h && p.UnitMeasured(i) {
			out = append(out, i)
		}
	}
	return out
}

// MeasuredSizes returns the usable unit count per phase.
func (p *Phases) MeasuredSizes() []int {
	out := make([]int, p.K)
	if p.unitsByPhase != nil {
		for h := range out {
			for _, i := range p.unitsByPhase[h] {
				if p.UnitMeasured(i) {
					out[h]++
				}
			}
		}
		return out
	}
	for i, a := range p.Assign {
		if p.UnitMeasured(i) {
			out[a]++
		}
	}
	return out
}

// DegradedFraction is the fraction of units excluded from phase
// statistics.
func (p *Phases) DegradedFraction() float64 {
	if len(p.Assign) == 0 {
		return 0
	}
	n := 0
	for i := range p.Assign {
		if !p.UnitMeasured(i) {
			n++
		}
	}
	return float64(n) / float64(len(p.Assign))
}

// CPIStats summarizes CPI per phase.
func (p *Phases) CPIStats() []stats.Summary {
	out := make([]stats.Summary, p.K)
	for h := 0; h < p.K; h++ {
		out[h] = stats.Summarize(p.PhaseCPIs(h))
	}
	return out
}

// CoVReport is the homogeneity analysis of Fig. 6.
type CoVReport struct {
	Population float64 // CoV of all units' CPIs
	Weighted   float64 // per-phase CoV weighted by phase size
	Max        float64 // worst phase
}

// CoV computes the Fig. 6 homogeneity metrics.
func (p *Phases) CoV() CoVReport {
	rep := CoVReport{Population: stats.CoV(p.Trace.CPIs())}
	weights := p.Weights()
	for h := 0; h < p.K; h++ {
		c := stats.CoV(p.PhaseCPIs(h))
		rep.Weighted += weights[h] * c
		if c > rep.Max {
			rep.Max = c
		}
	}
	return rep
}

// DominantMethods returns the n feature methods with the highest center
// weight in phase h — the paper's way of tracing a phase back to code
// ("the method most commonly seen in this phase"). Framework frames
// (thread entry points, task runners), which appear in every snapshot,
// are skipped; they only surface if a phase contains nothing else.
func (p *Phases) DominantMethods(h, n int) []string {
	if h < 0 || h >= p.K {
		return nil
	}
	idx := stats.TopK(p.Centers[h], len(p.Centers[h]))
	out := make([]string, 0, n)
	for _, j := range idx {
		if len(out) == n || p.Centers[h][j] <= 0 {
			break
		}
		if k := p.Space.Kinds[j]; k == model.KindFramework {
			continue
		}
		out = append(out, p.Space.Methods[j])
	}
	if len(out) == 0 {
		for _, j := range idx[:min(n, len(idx))] {
			if p.Centers[h][j] > 0 {
				out = append(out, p.Space.Methods[j])
			}
		}
	}
	return out
}

// DominantKind classifies phase h by the operation kind carrying the
// most center weight (map/reduce/sort/IO); framework and other frames
// are ignored unless nothing else appears.
func (p *Phases) DominantKind(h int) model.Kind {
	weights := make([]float64, model.NumKinds)
	for j, w := range p.Centers[h] {
		weights[p.Space.Kinds[j]] += w
	}
	best, bestW := model.KindOther, math.Inf(-1)
	for _, k := range []model.Kind{model.KindMap, model.KindReduce, model.KindSort, model.KindIO} {
		if weights[k] > bestW && weights[k] > 0 {
			best, bestW = k, weights[k]
		}
	}
	if math.IsInf(bestW, -1) {
		return model.KindOther
	}
	return best
}

// TypeDistribution returns the fraction of sampling units whose phase
// is dominated by each kind — Fig. 10's breakdown.
func (p *Phases) TypeDistribution() map[model.Kind]float64 {
	out := map[model.Kind]float64{}
	weights := p.Weights()
	for h := 0; h < p.K; h++ {
		out[p.DominantKind(h)] += weights[h]
	}
	return out
}
