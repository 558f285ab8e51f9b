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
	"slices"

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
		"full-space vectorizations that adopted a decoder-attached frequency matrix instead of counting")
)

// Options controls phase formation. Zero values select the paper's
// parameters.
type Options struct {
	TopK                int     // methods kept by feature selection (paper: 100)
	MaxPhases           int     // k sweep upper bound (paper: 20)
	SilhouetteThreshold float64 // fraction of best silhouette accepted (default 0.93)
	Seed                uint64
	// Restarts bounds the k-means restarts per swept k; zero selects the
	// clustering default of 4, which reproduces the paper's runs.
	Restarts int
	// Deprecated: ignored. Every k-means restart runs one Lloyd update
	// from its k-means++ seeding (DESIGN.md §12); the field stays only
	// while the benchmark module still sets it, and goes with ROADMAP
	// item 5a.
	MaxIter int
	// Workers bounds the concurrency of the whole formation pipeline
	// (feature scoring, the projection, the k sweep and its restarts).
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

// unitChunk is the fixed per-chunk unit count of the projection loop.
const unitChunk = 64

// scanChunk is the fixed per-chunk unit count of the unit scan.
const scanChunk = 1 << 14

// VectorizeSparse converts every unit of the trace into this feature
// space as a CSR matrix: dimension j of row u counts the stack frames in
// unit u's snapshots that refer to method j. It remaps the columns of
// the trace's method counts (Trace.CountMethods): methods are matched by
// FQN, so the trace may intern them in any order, ids that share one
// FQN sum onto its dimension, and methods outside the space drop out.
// Every cell is an exact integer count.
//
// When the space is the trace's method table in id order (every FQN
// unique), no remap is needed: the counts are returned as they are, and
// a frequency matrix a columnar decoder attached is adopted instead of
// recounting (tracebin stores CountMethods as three file sections, so
// this vectorization is free on an SPTB trace).
func (fs *FeatureSpace) VectorizeSparse(tr *trace.Trace) *matrix.Sparse {
	dimOf := make(map[string]int32, len(fs.Methods))
	for j, fqn := range fs.Methods {
		dimOf[fqn] = int32(j)
	}
	idToDim := make([]int32, len(tr.Methods))
	identity := len(fs.Methods) == len(tr.Methods)
	for i, m := range tr.Methods {
		j, ok := dimOf[m.FQN()]
		if !ok {
			j = -1
		}
		idToDim[i] = j
		identity = identity && j == int32(i)
	}
	if identity {
		if sp := tr.Freq(); sp != nil && sp.Rows() == len(tr.Units) && sp.Cols() == len(tr.Methods) {
			obsFreqAdopted.Inc()
			return sp
		}
		return tr.CountMethods()
	}
	counts := tr.CountMethods()
	d := len(fs.Methods)
	b := matrix.NewSparseBuilder(d, counts.Rows(), counts.NNZ())
	sums := make([]float64, d) // scratch: zero ⇔ untouched this unit
	touched := make([]int32, 0, 64)
	vals := make([]float64, 0, 64)
	for u := 0; u < counts.Rows(); u++ {
		touched = touched[:0]
		cols, cs := counts.Row(u)
		for k, id := range cols {
			if j := idToDim[id]; j >= 0 {
				if sums[j] == 0 {
					touched = append(touched, j)
				}
				sums[j] += cs[k]
			}
		}
		slices.Sort(touched)
		vals = vals[:0]
		for _, j := range touched {
			vals = append(vals, sums[j])
			sums[j] = 0
		}
		b.AppendRow(touched, vals)
	}
	return b.Build()
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
	// rescanning all N assignments on every call. Only the phase
	// membership is cached — measured status stays dynamic, because unit
	// quality can legally change after formation (tests degrade traces
	// post-Form). The per-phase accessors read membership only from
	// here, so a Phases must come from Form.
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

	// The unit scan flags the degraded units and lists the fully
	// observed ones with their IPC, the feature-selection target.
	_, scanSpan := obs.StartSpan(ctx, "phase.scan")
	degraded, clean, cleanIPC, err := scanUnits(eng, tr)
	scanSpan.End()
	if err != nil {
		return nil, fmt.Errorf("phase: unit scan: %w", err)
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
	sp := full.VectorizeSparse(tr)
	obsVecNNZ.Add(int64(sp.NNZ()))
	obsVecCells.Add(int64(sp.Rows()) * int64(sp.Cols()))
	vecSpan.End()
	// Univariate linear-regression feature selection against IPC, on
	// fully observed units only (a dropped counter is not IPC 0). The
	// sparse scorer walks stored nonzeros, never the full method space.
	_, fregSpan := obs.StartSpan(ctx, "phase.fregression")
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
	fregSpan.End()
	// Projection onto the selected dimensions goes straight from CSR to
	// a flat Dense the clustering kernels run on. Chunks of rows project
	// independently (each cell is written by exactly one chunk, no
	// reductions), so the result is bit-for-bit GatherColumnsDense at
	// every worker count.
	_, projSpan := obs.StartSpan(ctx, "phase.project")
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
	projSpan.End()
	clusterCtx, clusterSpan := obs.StartSpan(ctx, "phase.cluster")
	sel, err := cluster.ChooseKDense(cleanSelected, cluster.ChooseKOptions{
		MaxK:      o.MaxPhases,
		Threshold: o.SilhouetteThreshold,
		KMeans:    cluster.Options{Seed: o.Seed, Restarts: o.Restarts},
		Workers:   o.Workers,
		Ctx:       clusterCtx,
	})
	clusterSpan.End()
	if err != nil {
		return nil, fmt.Errorf("phase: clustering: %w", err)
	}
	// Assembly: degraded units onto the formed centers, the row views
	// and the per-phase unit index.
	_, assembleSpan := obs.StartSpan(ctx, "phase.assemble")
	defer assembleSpan.End()
	// On a pristine trace the clustering's assignment already covers
	// every unit in order: adopt it as is.
	assign := sel.Best.Assign
	// Classify degraded units onto the formed centers so they keep a
	// phase (and so phase weights reflect the whole execution). The
	// NearestSet shares one norm cache across every degraded unit and
	// matches a plain nearest-center scan bit-for-bit.
	obsFormDegraded.Add(int64(len(tr.Units) - len(clean)))
	if len(clean) < len(tr.Units) {
		assign = make([]int, len(tr.Units))
		for k, i := range clean {
			assign[i] = sel.Best.Assign[k]
		}
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

// scanUnits flags the degraded units of tr and lists the fully observed
// ones, in ascending order, with their IPC. It reads each unit row once,
// over the fixed scanChunk grid on eng: chunk [lo, hi) lists its clean
// units from position lo of clean and cleanIPC, so every chunk's region
// is known before the scan, and the gaps its degraded units leave are
// closed afterwards in chunk order. On a pristine trace nothing moves.
// The lists are the same for every worker count; a canceled eng
// returns its error.
func scanUnits(eng *parallel.Engine, tr *trace.Trace) (degraded []bool, clean []int, cleanIPC []float64, err error) {
	n := len(tr.Units)
	degraded = make([]bool, n)
	clean = make([]int, n)
	cleanIPC = make([]float64, n)
	kept := make([]int, parallel.Chunks(n, scanChunk))
	eng.ForEachChunk(n, scanChunk, func(c, lo, hi int) {
		k := lo
		for i := lo; i < hi; i++ {
			if tr.EffectiveQuality(i).Degraded() {
				degraded[i] = true
				continue
			}
			clean[k] = i
			cleanIPC[k] = tr.Units[i].Counters.IPC()
			k++
		}
		kept[c] = k - lo
	})
	if err := eng.Err(); err != nil {
		return nil, nil, nil, err
	}
	m := 0
	for c, k := range kept {
		if lo := c * scanChunk; lo != m {
			copy(clean[m:], clean[lo:lo+k])
			copy(cleanIPC[m:], cleanIPC[lo:lo+k])
		}
		m += k
	}
	return degraded, clean[:m], cleanIPC[:m], nil
}

// members returns the cached unit list of phase h; an out-of-range h
// has no units.
func (p *Phases) members(h int) []int {
	if h < 0 || h >= len(p.unitsByPhase) {
		return nil
	}
	return p.unitsByPhase[h]
}

// Sizes returns the unit count per phase.
func (p *Phases) Sizes() []int {
	out := make([]int, p.K)
	for h := range out {
		out[h] = len(p.unitsByPhase[h])
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
	units := p.members(h)
	out := make([]float64, 0, len(units))
	for _, i := range units {
		if p.UnitMeasured(i) {
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

// MeasuredSizes returns the usable unit count per phase.
func (p *Phases) MeasuredSizes() []int {
	out := make([]int, p.K)
	for h := range out {
		for _, i := range p.unitsByPhase[h] {
			if p.UnitMeasured(i) {
				out[h]++
			}
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
