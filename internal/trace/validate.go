package trace

import (
	"fmt"
	"sort"
	"strings"

	"simprof/internal/model"
	"simprof/internal/obs"
)

// Repair telemetry: what normalization actually did across a run.
var (
	obsRepairs = obs.NewCounter("trace.repairs",
		"Repair passes run")
	obsRepairChanged = obs.NewCounter("trace.repairs_changed",
		"Repair passes that modified the trace")
	obsRepairDropped = obs.NewCounter("trace.repair_units_dropped",
		"duplicate units dropped by Repair")
	obsRepairReordered = obs.NewCounter("trace.repair_units_reordered",
		"units moved back into stream order by Repair")
	obsRepairFlagged = obs.NewCounter("trace.repair_units_flagged",
		"quality flags materialized by Repair (missing+partial+truncated)")
)

// Quality is a bitmask of per-unit degradation flags. A zero value (OK)
// marks a pristine unit; any set bit marks a unit whose observation is
// incomplete in a way real profilers produce — perf_event multiplexing
// dropping counter reads, JVMTI snapshot requests lost under load, or an
// executor crashing mid-stream. Degraded units stay in the trace (they
// still represent executed instructions, so phase weights must count
// them) but the statistics layers exclude or impute them instead of
// treating garbage values as measurements.
type Quality uint8

const (
	// OK marks a fully observed unit.
	OK Quality = 0
	// CountersMissing marks a unit whose hardware counters were lost
	// (multiplexing dropout). Its CPI is meaningless.
	CountersMissing Quality = 1 << 0
	// SnapshotsPartial marks a unit that lost call-stack snapshots. Its
	// feature vector underestimates method frequencies.
	SnapshotsPartial Quality = 1 << 1
	// Truncated marks the last surviving unit of a thread stream cut
	// short by an executor crash, or a unit following a gap in its
	// thread's unit sequence.
	Truncated Quality = 1 << 2

	qualityKnown = CountersMissing | SnapshotsPartial | Truncated
)

// Degraded reports whether any flag is set.
func (q Quality) Degraded() bool { return q != OK }

// Has reports whether flag f is set.
func (q Quality) Has(f Quality) bool { return q&f != 0 }

// String renders the flags ("ok" or "counters_missing|truncated").
func (q Quality) String() string {
	if q == OK {
		return "ok"
	}
	var s string
	add := func(name string) {
		if s != "" {
			s += "|"
		}
		s += name
	}
	if q.Has(CountersMissing) {
		add("counters_missing")
	}
	if q.Has(SnapshotsPartial) {
		add("snapshots_partial")
	}
	if q.Has(Truncated) {
		add("truncated")
	}
	if q&^qualityKnown != 0 {
		add(fmt.Sprintf("unknown(%#x)", uint8(q&^qualityKnown)))
	}
	return s
}

// CPIValid reports whether the unit's CPI is a real measurement: the
// counters were observed and the unit holds instructions. Zero-
// instruction units (counter dropouts, malformed input) must not enter
// CPI means or σ estimates as CPI 0 — that is a missing value, not a
// fast unit.
func (u *Unit) CPIValid() bool {
	return u.Counters.Instructions > 0 && !u.Quality.Has(CountersMissing)
}

// ExpectedSnapshots is the snapshot count a fully observed unit carries
// at this trace's cadence.
func (t *Trace) ExpectedSnapshots() int {
	if t.SnapshotEvery == 0 {
		return 0
	}
	return int(t.UnitInstr / t.SnapshotEvery)
}

// EffectiveQuality returns unit i's stored flags plus the flags that are
// derivable from the unit itself (zero instructions ⇒ CountersMissing,
// fewer snapshots than the cadence implies ⇒ SnapshotsPartial). The
// pipeline consumes effective quality so hand-built or legacy traces
// degrade gracefully even when nothing ran Repair on them.
func (t *Trace) EffectiveQuality(i int) Quality {
	u := &t.Units[i]
	q := u.Quality
	if u.Counters.Instructions == 0 {
		q |= CountersMissing
	}
	if exp := t.ExpectedSnapshots(); u.Snapshots.Len() < exp {
		q |= SnapshotsPartial
	}
	return q
}

// DegradedFraction is the fraction of units with any effective flag set.
func (t *Trace) DegradedFraction() float64 {
	if len(t.Units) == 0 {
		return 0
	}
	n := 0
	for i := range t.Units {
		if t.EffectiveQuality(i).Degraded() {
			n++
		}
	}
	return float64(n) / float64(len(t.Units))
}

// QualitySummary counts units per effective flag (a unit with several
// flags is counted under each).
type QualitySummary struct {
	Units            int
	OK               int
	CountersMissing  int
	SnapshotsPartial int
	Truncated        int
}

// Summarize tallies the effective quality of every unit.
func (t *Trace) Summarize() QualitySummary {
	s := QualitySummary{Units: len(t.Units)}
	for i := range t.Units {
		q := t.EffectiveQuality(i)
		if q == OK {
			s.OK++
			continue
		}
		if q.Has(CountersMissing) {
			s.CountersMissing++
		}
		if q.Has(SnapshotsPartial) {
			s.SnapshotsPartial++
		}
		if q.Has(Truncated) {
			s.Truncated++
		}
	}
	return s
}

// String renders the tally, e.g. "228 units: 140 ok, 60
// counters_missing, 45 snapshots_partial, 3 truncated".
func (s QualitySummary) String() string {
	parts := []string{fmt.Sprintf("%d ok", s.OK)}
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	add(s.CountersMissing, "counters_missing")
	add(s.SnapshotsPartial, "snapshots_partial")
	add(s.Truncated, "truncated")
	return fmt.Sprintf("%d units: %s", s.Units, strings.Join(parts, ", "))
}

// Validate checks the structural invariants every pipeline stage relies
// on and returns the first violation: ValidateHeader, then ValidateUnit
// on each unit in order. It is the one validity rule of the trust
// boundary: DecodeGob calls it, and the columnar decoder
// (internal/tracebin) calls its two halves, so a malformed input of
// either format surfaces as the same error instead of a panic deep in
// phase formation. Quality problems (lost counters, partial snapshots) are
// NOT errors — they are per-unit flags; Repair turns a structurally
// broken trace into a valid, flagged one when possible.
func (t *Trace) Validate() error {
	if err := t.ValidateHeader(); err != nil {
		return err
	}
	for i := range t.Units {
		if err := t.ValidateUnit(i); err != nil {
			return err
		}
	}
	return nil
}

// ValidateHeader checks the trace-level invariants: a positive unit
// size, a snapshot cadence in (0, UnitInstr], and a method table in id
// order that lists no qualified name twice.
func (t *Trace) ValidateHeader() error {
	if t == nil {
		return fmt.Errorf("trace: nil trace")
	}
	if err := t.checkCadence(); err != nil {
		return err
	}
	// Table re-interns methods by qualified name, so a name listed twice
	// would collapse two ids into one.
	names := make(map[string]bool, len(t.Methods))
	for i, m := range t.Methods {
		if int(m.ID) != i {
			return fmt.Errorf("trace: method table not id-ordered at %d (id %d)", i, m.ID)
		}
		fqn := m.FQN()
		if names[fqn] {
			return fmt.Errorf("trace: method %q listed twice (id %d)", fqn, m.ID)
		}
		names[fqn] = true
	}
	return nil
}

// checkCadence checks the unit size and the snapshot cadence.
func (t *Trace) checkCadence() error {
	if t.UnitInstr == 0 {
		return fmt.Errorf("trace: UnitInstr must be positive")
	}
	if t.SnapshotEvery == 0 || t.SnapshotEvery > t.UnitInstr {
		return fmt.Errorf("trace: SnapshotEvery=%d must be in (0, UnitInstr=%d]",
			t.SnapshotEvery, t.UnitInstr)
	}
	return nil
}

// ValidateUnit checks unit i's invariants against a header that passed
// ValidateHeader: its id is i, its thread and index are non-negative,
// it holds at most UnitInstr instructions, its spans fit the columns
// (checkSpans), it has at most one snapshot more than the cadence
// implies, it sets only known quality bits, and every frame is a method
// of the table. It only reads the trace, so distinct units may be
// checked concurrently.
func (t *Trace) ValidateUnit(i int) error {
	u := &t.Units[i]
	if u.ID != i {
		return fmt.Errorf("trace: non-dense unit ids at %d (id %d)", i, u.ID)
	}
	if u.Thread < 0 || u.Index < 0 {
		return fmt.Errorf("trace: unit %d has negative thread/index (%d/%d)", i, u.Thread, u.Index)
	}
	if u.Counters.Instructions > t.UnitInstr {
		return fmt.Errorf("trace: unit %d holds %d instructions, more than the unit size %d",
			i, u.Counters.Instructions, t.UnitInstr)
	}
	if err := t.checkSpans(i); err != nil {
		return err
	}
	if n, maxSnaps := u.Snapshots.Len(), t.ExpectedSnapshots()+1; n > maxSnaps {
		return fmt.Errorf("trace: unit %d has %d snapshots, more than the cadence allows (%d)",
			i, n, maxSnaps)
	}
	if u.Quality&^qualityKnown != 0 {
		return fmt.Errorf("trace: unit %d has unknown quality bits %#x", i, uint8(u.Quality))
	}
	for _, id := range t.Snapshots(i).Frames {
		if id < 0 || int(id) >= len(t.Methods) {
			return fmt.Errorf("trace: unit %d snapshot refers to method %d outside the table (%d methods)",
				i, id, len(t.Methods))
		}
	}
	return nil
}

// checkSpans checks what Snapshots(i) and Stages(i) need: unit i's
// snapshot span fits the stacks of FrameOff, the stack offsets it spans
// fit Frames (Snapshots.check), and its stage span fits StageIDs.
func (t *Trace) checkSpans(i int) error {
	u := &t.Units[i]
	if err := u.Snapshots.check(max(len(t.FrameOff)-1, 0), "snapshot", "stacks"); err != nil {
		return fmt.Errorf("trace: unit %d %w", i, err)
	}
	if s := u.Snapshots; s.Lo < s.Hi {
		if a, b := t.FrameOff[s.Lo], t.FrameOff[s.Hi]; b < a || uint64(b) > uint64(len(t.Frames)) {
			return fmt.Errorf("trace: unit %d snapshot frames [%d, %d) do not fit the %d frames",
				i, a, b, len(t.Frames))
		}
	}
	if err := t.Snapshots(i).check(); err != nil {
		return fmt.Errorf("trace: unit %d %w", i, err)
	}
	if err := u.Stages.check(len(t.StageIDs), "stage", "stage ids"); err != nil {
		return fmt.Errorf("trace: unit %d %w", i, err)
	}
	return nil
}

// check reports whether s is an ordered span of a column of n entries.
func (s Span) check(n int, what, column string) error {
	if s.Lo > s.Hi {
		return fmt.Errorf("%s span [%d, %d) is inverted", what, s.Lo, s.Hi)
	}
	if uint64(s.Hi) > uint64(n) {
		return fmt.Errorf("%s span [%d, %d) runs past the %d %s", what, s.Lo, s.Hi, n, column)
	}
	return nil
}

// check reports whether the stack offsets never decrease, which is what
// At needs: Snapshots builds s from a span whose frames run exactly from
// its first offset to its last, and checkSpans has checked those two.
// Offsets are compared relative to Off[0] modulo 2^32, as At reads them.
func (s Snapshots) check() error {
	prev := uint32(0)
	for j := 1; j < len(s.Off); j++ {
		d := s.Off[j] - s.Off[0]
		if d < prev {
			return fmt.Errorf("snapshot offsets not monotone at %d (%d < %d)", j, d, prev)
		}
		prev = d
	}
	return nil
}

// RepairReport records what Repair changed.
type RepairReport struct {
	MethodsRemapped  bool // method table was re-sorted / re-identified
	UnitsDropped     int  // duplicate (thread,index) units removed
	UnitsReordered   int  // units moved back into stream order
	FramesDropped    int  // snapshot frames referring outside the method table
	SnapshotsClamped int  // over-long snapshot lists truncated to the cadence
	CountersCleared  int  // impossible counter readings zeroed + flagged
	FlaggedMissing   int  // units flagged CountersMissing
	FlaggedPartial   int  // units flagged SnapshotsPartial
	FlaggedTruncated int  // units flagged Truncated
}

// Changed reports whether Repair modified the trace at all.
func (r RepairReport) Changed() bool {
	return r != RepairReport{}
}

// longestOrderedRun returns the length of the longest subsequence of
// units already in non-decreasing (thread, index) order — the units
// Repair's sort leaves logically in place.
func longestOrderedRun(units []Unit) int {
	// Patience sorting: tails[k] holds the smallest possible last key of
	// a non-decreasing subsequence of length k+1.
	type key struct{ thread, index int }
	le := func(a, b key) bool {
		return a.thread < b.thread || (a.thread == b.thread && a.index <= b.index)
	}
	var tails []key
	for _, u := range units {
		k := key{u.Thread, u.Index}
		pos := sort.Search(len(tails), func(i int) bool { return !le(tails[i], k) })
		if pos == len(tails) {
			tails = append(tails, k)
		} else {
			tails[pos] = k
		}
	}
	return len(tails)
}

// String renders the non-zero repair actions, e.g.
// "dropped 2 duplicate units, flagged 5 truncated".
func (r RepairReport) String() string {
	var parts []string
	add := func(n int, what string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, what))
		}
	}
	if r.MethodsRemapped {
		parts = append(parts, "method table re-identified")
	}
	add(r.UnitsDropped, "duplicate units dropped")
	add(r.UnitsReordered, "units reordered")
	add(r.FramesDropped, "stack frames dropped")
	add(r.SnapshotsClamped, "snapshot lists clamped")
	add(r.CountersCleared, "counter sets cleared")
	add(r.FlaggedMissing, "units flagged counters_missing")
	add(r.FlaggedPartial, "units flagged snapshots_partial")
	add(r.FlaggedTruncated, "units flagged truncated")
	if len(parts) == 0 {
		return "no changes"
	}
	return strings.Join(parts, ", ")
}

// Repair normalizes a structurally damaged trace in place so that it
// passes Validate, materializing quality flags for everything that was
// lost rather than fabricated: duplicate units are dropped, displaced
// units are sorted back into (thread, index) order and re-identified
// densely, snapshot frames pointing outside the method table are
// removed (flagging SnapshotsPartial), impossible counter readings are
// cleared (flagging CountersMissing), and gaps in a thread's unit
// sequence flag the following unit Truncated. Structural damage Repair
// cannot make sense of (an unusable unit size or snapshot cadence, a
// method table with colliding ids it cannot re-identify) returns an
// error and leaves the trace unchanged; so do spans that do not fit
// their columns. A repaired trace's frame columns follow unit order.
func (t *Trace) Repair() (RepairReport, error) {
	var rep RepairReport
	if t == nil {
		return rep, fmt.Errorf("trace: nil trace")
	}
	// Repair mutates units and snapshots, so any attached frequency
	// matrix no longer matches the trace.
	t.freq = nil
	if err := t.checkCadence(); err != nil {
		return rep, err
	}

	// Spans that do not fit their columns leave no way to tell which
	// snapshots were real.
	for i := range t.Units {
		if err := t.checkSpans(i); err != nil {
			return rep, err
		}
	}

	// Method table: re-sort by declared id, then re-identify densely.
	// Snapshot frames are remapped through old→new; unmappable frames
	// are dropped below.
	remap, err := t.repairMethods(&rep)
	if err != nil {
		return rep, err
	}

	// Units: drop duplicates, restore stream order, re-identify. The
	// moved rows carry their spans.
	t.repairUnits(&rep)

	maxSnaps := t.ExpectedSnapshots()
	t.repairSnapshots(remap, maxSnaps+1, &rep)
	for i := range t.Units {
		u := &t.Units[i]
		// Counters beyond the unit size cannot be a real reading.
		if u.Counters.Instructions > t.UnitInstr {
			u.Counters = Counters{}
			rep.CountersCleared++
		}
		if u.Counters.Instructions == 0 && !u.Quality.Has(CountersMissing) {
			u.Quality |= CountersMissing
			rep.FlaggedMissing++
		}
		if u.Snapshots.Len() < maxSnaps && !u.Quality.Has(SnapshotsPartial) {
			u.Quality |= SnapshotsPartial
			rep.FlaggedPartial++
		}
		u.Quality &= qualityKnown
	}
	obsRepairs.Inc()
	if rep.Changed() {
		obsRepairChanged.Inc()
		obsRepairDropped.Add(int64(rep.UnitsDropped))
		obsRepairReordered.Add(int64(rep.UnitsReordered))
		obsRepairFlagged.Add(int64(rep.FlaggedMissing + rep.FlaggedPartial + rep.FlaggedTruncated))
	}
	return rep, t.Validate()
}

// repairSnapshots rebuilds the frame columns in one pass in unit order:
// it remaps every unit's snapshot frames through remap, drops frames
// outside the method table and clamps each unit to limit snapshots,
// counting both in rep and flagging SnapshotsPartial on a unit that lost
// a frame. The old columns, possibly views of a decoded buffer, are never
// written. The spans must fit the columns.
func (t *Trace) repairSnapshots(remap map[model.MethodID]model.MethodID, limit int, rep *RepairReport) {
	var cols Trace // the rebuilt frame columns
	var kept model.Stack
	for i := range t.Units {
		u := &t.Units[i]
		s := t.Snapshots(i)
		dropped := 0
		for _, id := range s.Frames {
			if _, ok := remapID(remap, id, len(t.Methods)); !ok {
				dropped++
			}
		}
		n := min(s.Len(), limit)
		if n < s.Len() {
			rep.SnapshotsClamped++
		}
		rep.FramesDropped += dropped
		u.Snapshots = Span{}
		for j := 0; j < n; j++ {
			kept = kept[:0]
			for _, id := range s.At(j) {
				if nid, ok := remapID(remap, id, len(t.Methods)); ok {
					kept = append(kept, nid)
				}
			}
			cols.AppendSnapshot(u, kept)
		}
		if dropped > 0 {
			if !u.Quality.Has(SnapshotsPartial) {
				rep.FlaggedPartial++
			}
			u.Quality |= SnapshotsPartial
		}
	}
	t.Frames, t.FrameOff = cols.Frames, cols.FrameOff
}

// repairMethods restores a dense id-ordered method table, returning the
// old-id → new-id remap (nil when the table was already clean).
func (t *Trace) repairMethods(rep *RepairReport) (map[model.MethodID]model.MethodID, error) {
	clean := true
	for i, m := range t.Methods {
		if int(m.ID) != i {
			clean = false
			break
		}
	}
	if clean {
		return nil, nil
	}
	rep.MethodsRemapped = true
	sorted := make([]model.Method, len(t.Methods))
	copy(sorted, t.Methods)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
	remap := make(map[model.MethodID]model.MethodID, len(sorted))
	out := sorted[:0:0]
	for _, m := range sorted {
		if _, dup := remap[m.ID]; dup {
			return nil, fmt.Errorf("trace: method table has colliding id %d", m.ID)
		}
		remap[m.ID] = model.MethodID(len(out))
		m.ID = model.MethodID(len(out))
		out = append(out, m)
	}
	t.Methods = out
	return remap, nil
}

func remapID(remap map[model.MethodID]model.MethodID, id model.MethodID, n int) (model.MethodID, bool) {
	if remap == nil {
		if id < 0 || int(id) >= n {
			return 0, false
		}
		return id, true
	}
	nid, ok := remap[id]
	return nid, ok
}

// repairUnits restores stream order, removes duplicates and
// re-identifies units densely, flagging sequence gaps as Truncated.
func (t *Trace) repairUnits(rep *RepairReport) {
	ordered := true
	for i := 1; i < len(t.Units); i++ {
		a, b := t.Units[i-1], t.Units[i]
		if b.Thread < a.Thread || (b.Thread == a.Thread && b.Index <= a.Index) {
			ordered = false
			break
		}
	}
	if !ordered {
		// Report the minimal number of units that had to move: everything
		// outside the longest already-ordered subsequence. (Counting raw
		// position changes would blame the whole tail for one insertion.)
		rep.UnitsReordered = len(t.Units) - longestOrderedRun(t.Units)
		sort.SliceStable(t.Units, func(a, b int) bool {
			if t.Units[a].Thread != t.Units[b].Thread {
				return t.Units[a].Thread < t.Units[b].Thread
			}
			return t.Units[a].Index < t.Units[b].Index
		})
		// Drop duplicate (thread, index) entries, keeping the first.
		kept := t.Units[:0]
		for i, u := range t.Units {
			if i > 0 && u.Thread == kept[len(kept)-1].Thread && u.Index == kept[len(kept)-1].Index {
				rep.UnitsDropped++
				continue
			}
			kept = append(kept, u)
		}
		t.Units = kept
	}
	prevThread, prevIndex := -1, -1
	for i := range t.Units {
		u := &t.Units[i]
		u.ID = i
		if u.Thread < 0 {
			u.Thread = 0
		}
		if u.Index < 0 {
			u.Index = 0
		}
		gap := false
		if u.Thread == prevThread {
			gap = u.Index != prevIndex+1
		} else {
			gap = u.Index != 0
		}
		if gap && !u.Quality.Has(Truncated) {
			u.Quality |= Truncated
			rep.FlaggedTruncated++
		}
		prevThread, prevIndex = u.Thread, u.Index
	}
}
