// Package faults is a deterministic, seeded fault-injection subsystem
// that perturbs a profiling trace the way real collectors fail: perf
// multiplexing drops counter reads and scales the surviving ones with
// extrapolation error, JVMTI snapshot requests get lost under load,
// executors crash and truncate their thread streams, and retried
// uploads duplicate or reorder units. Injection happens on the trace —
// after collection, before any analysis — so every downstream layer
// (validation/repair, phase formation, sampling, sensitivity) can be
// exercised against degraded inputs.
//
// Determinism contract: Apply is a pure function of (trace, Config).
// Each fault channel draws from its own SplitSeed-derived RNG, so
// enabling one channel never shifts another's draws, and the same seed
// replays the same fault schedule bit for bit at any worker count.
package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"simprof/internal/model"
	"simprof/internal/obs"
	"simprof/internal/stats"
	"simprof/internal/trace"
)

// Per-channel injection telemetry, one counter per fault class, so a
// run manifest can attribute degradation to its source.
var (
	obsApplies = obs.NewCounter("faults.applies",
		"fault schedules applied to a trace")
	obsDropped = obs.NewCounter("faults.counters_dropped",
		"units whose counters were zeroed by injection")
	obsMuxed = obs.NewCounter("faults.multiplexed",
		"units with multiplex-scaled counter readings")
	obsSnapsLost = obs.NewCounter("faults.snapshots_lost",
		"call-stack snapshots removed by injection")
	obsCrashes = obs.NewCounter("faults.crashed_threads",
		"thread streams truncated by injected crashes")
	obsUnitsLost = obs.NewCounter("faults.units_lost",
		"units removed by injected crashes")
	obsDuplicated = obs.NewCounter("faults.duplicated",
		"units duplicated by injected retry uploads")
	obsDisplaced = obs.NewCounter("faults.displaced",
		"units displaced by injected reordering")
)

// Config sets the per-channel fault rates. All rates are probabilities
// in [0,1]; the zero value injects nothing.
type Config struct {
	// CounterDrop is the per-unit probability that the hardware-counter
	// read was lost entirely (multiplexing dropout): counters are zeroed
	// and the unit is flagged CountersMissing.
	CounterDrop float64
	// Multiplex is the per-unit probability that the counters were
	// read under multiplexing and extrapolated: cycles are scaled by a
	// log-normal factor with coefficient of variation MultiplexCoV.
	// This error is invisible to the pipeline (no flag) — exactly like
	// real extrapolated perf counts.
	Multiplex float64
	// MultiplexCoV is the scaling-error CoV (default 0.05 when
	// Multiplex > 0).
	MultiplexCoV float64
	// SnapshotLoss is the per-snapshot probability that a call-stack
	// snapshot request was lost; affected units are flagged
	// SnapshotsPartial.
	SnapshotLoss float64
	// Crash is the per-thread probability that the executor crashed
	// mid-run, truncating the thread's unit stream at a uniform point.
	// The last surviving unit is flagged Truncated.
	Crash float64
	// Duplicate is the per-unit probability that the unit was uploaded
	// twice (retry after a timed-out ack); the copy keeps the original
	// id, producing the non-dense id streams Repair must collapse.
	Duplicate float64
	// Reorder is the per-unit probability that the unit was delivered
	// out of order; displaced units are permuted among themselves.
	Reorder float64

	// The I/O channels perturb byte streams rather than traces; they are
	// consumed by NewIO's Reader/Writer wrappers and ignored by Apply
	// (which operates on an already-decoded trace), so a fault spec
	// cannot set them: callers build them into a Config directly.

	// TornWrite is the per-Write probability that only a prefix of the
	// buffer reaches the destination before the write fails (power cut,
	// full disk, killed writer) — the wrapped writer persists the prefix
	// and returns ErrTornWrite.
	TornWrite float64
	// PartialRead is the per-Read probability that the source dies
	// mid-read: the wrapped reader delivers a prefix of what it got and
	// returns ErrPartialRead.
	PartialRead float64
	// IOLatencyMS injects that many milliseconds of delay (±50%,
	// seeded) into every wrapped Read and Write — slow disks, stalled
	// NFS, throttled clients. 0 injects none.
	IOLatencyMS float64

	// Seed drives every channel (via SplitSeed, one stream per channel).
	Seed uint64
}

// Channel seed labels, one per fault class.
const (
	seedDrop = iota + 0x7a11
	seedMux
	seedSnap
	seedCrash
	seedDup
	seedReorder
	seedCorrupt
	seedTorn
	seedPartial
	seedIOLat
)

// Validate checks that all rates are probabilities.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop", c.CounterDrop}, {"mux", c.Multiplex}, {"muxcov", c.MultiplexCoV},
		{"snap", c.SnapshotLoss}, {"crash", c.Crash},
		{"dup", c.Duplicate}, {"reorder", c.Reorder},
		{"torn", c.TornWrite}, {"pread", c.PartialRead}, {"iolatms", c.IOLatencyMS},
	} {
		unbounded := r.name == "muxcov" || r.name == "iolatms"
		if r.v < 0 || (r.v > 1 && !unbounded) {
			return fmt.Errorf("faults: %s=%v out of [0,1]", r.name, r.v)
		}
	}
	return nil
}

// Enabled reports whether any trace channel has a non-zero rate. The
// I/O channels do not count — they act on byte streams via NewIO, not
// on the trace Apply perturbs.
func (c Config) Enabled() bool {
	return c.CounterDrop > 0 || c.Multiplex > 0 || c.SnapshotLoss > 0 ||
		c.Crash > 0 || c.Duplicate > 0 || c.Reorder > 0
}

// IOEnabled reports whether any I/O channel is active.
func (c Config) IOEnabled() bool {
	return c.TornWrite > 0 || c.PartialRead > 0 || c.IOLatencyMS > 0
}

// Uniform returns a schedule that stresses every channel at a single
// unit-level rate r — the dial the degradation ablation sweeps. Crash
// (a per-thread event) runs at half rate, duplication and reordering
// (transport faults, rarer than collection faults) at a quarter.
func Uniform(r float64, seed uint64) Config {
	return Config{
		CounterDrop:  r,
		Multiplex:    r,
		MultiplexCoV: 0.05,
		SnapshotLoss: r,
		Crash:        r / 2,
		Duplicate:    r / 4,
		Reorder:      r / 4,
		Seed:         seed,
	}
}

// String renders the trace channels of the schedule in ParseSpec
// syntax.
func (c Config) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", c.CounterDrop)
	add("mux", c.Multiplex)
	add("muxcov", c.MultiplexCoV)
	add("snap", c.SnapshotLoss)
	add("crash", c.Crash)
	add("dup", c.Duplicate)
	add("reorder", c.Reorder)
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault schedule, e.g.
// "drop=0.05,mux=0.1,snap=0.1,crash=0.02,dup=0.01,reorder=0.02".
// Keys: drop, mux, muxcov, snap, crash, dup, reorder, and rate=R as
// shorthand for the Uniform schedule at rate R. There is no key for an
// I/O channel: Apply ignores them, so a spec that set one would do
// nothing, and it is an unknown-channel error instead.
func ParseSpec(spec string) (Config, error) {
	var c Config
	if strings.TrimSpace(spec) == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("faults: bad spec entry %q (want key=rate)", kv)
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return c, fmt.Errorf("faults: bad rate in %q: %v", kv, err)
		}
		switch strings.TrimSpace(k) {
		case "rate":
			c = Uniform(f, c.Seed)
		case "drop":
			c.CounterDrop = f
		case "mux":
			c.Multiplex = f
		case "muxcov":
			c.MultiplexCoV = f
		case "snap":
			c.SnapshotLoss = f
		case "crash":
			c.Crash = f
		case "dup":
			c.Duplicate = f
		case "reorder":
			c.Reorder = f
		default:
			return c, fmt.Errorf("faults: unknown fault channel %q", k)
		}
	}
	if c.Multiplex > 0 && c.MultiplexCoV == 0 {
		c.MultiplexCoV = 0.05
	}
	return c, c.Validate()
}

// Report tallies what Apply injected.
type Report struct {
	CountersDropped int // units whose counters were zeroed
	Multiplexed     int // units with scaled counter readings
	SnapshotsLost   int // individual snapshots removed
	CrashedThreads  int // threads truncated
	UnitsLost       int // units removed by crashes
	Duplicated      int // units uploaded twice
	Displaced       int // units delivered out of order
}

// String summarizes the injection.
func (r Report) String() string {
	return fmt.Sprintf(
		"dropped counters on %d units, multiplex-scaled %d, lost %d snapshots, crashed %d threads (-%d units), duplicated %d, displaced %d",
		r.CountersDropped, r.Multiplexed, r.SnapshotsLost, r.CrashedThreads, r.UnitsLost, r.Duplicated, r.Displaced)
}

// Apply injects the configured faults into a copy of tr; the input is
// never modified. The result is intentionally NOT guaranteed to pass
// trace.Validate — duplication, reordering and crashes produce exactly
// the structurally damaged streams real collectors emit; run
// (*trace.Trace).Repair to normalize and flag it.
func Apply(tr *trace.Trace, cfg Config) (*trace.Trace, Report, error) {
	var rep Report
	if err := cfg.Validate(); err != nil {
		return nil, rep, err
	}
	out := cloneTrace(tr)
	if !cfg.Enabled() {
		return out, rep, nil
	}

	applyCrashes(out, cfg, &rep)
	applyCounterFaults(out, cfg, &rep)
	applySnapshotLoss(out, cfg, &rep)
	applyDuplicates(out, cfg, &rep)
	applyReorder(out, cfg, &rep)
	rep.observe()
	return out, rep, nil
}

// observe mirrors the report into the per-channel counters.
func (r Report) observe() {
	obsApplies.Inc()
	obsDropped.Add(int64(r.CountersDropped))
	obsMuxed.Add(int64(r.Multiplexed))
	obsSnapsLost.Add(int64(r.SnapshotsLost))
	obsCrashes.Add(int64(r.CrashedThreads))
	obsUnitsLost.Add(int64(r.UnitsLost))
	obsDuplicated.Add(int64(r.Duplicated))
	obsDisplaced.Add(int64(r.Displaced))
}

// cloneTrace copies the parts Apply may mutate: the method table and the
// pointer-free unit rows. The columns stay shared: Apply replaces the
// frame columns with rebuilt ones and never writes through them.
func cloneTrace(tr *trace.Trace) *trace.Trace {
	out := *tr
	out.SetFreq(nil) // the copied frequency handle would go stale with the mutations
	out.Methods = append([]model.Method(nil), tr.Methods...)
	out.Units = append([]trace.Unit(nil), tr.Units...)
	return &out
}

// applyCrashes truncates thread streams: a crashed executor stops
// reporting mid-run, so the tail of its unit sequence never arrives.
func applyCrashes(tr *trace.Trace, cfg Config, rep *Report) {
	if cfg.Crash <= 0 {
		return
	}
	rng := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedCrash))
	byThread := map[int][]int{} // thread → unit positions, stream order
	var threads []int
	for i, u := range tr.Units {
		if _, ok := byThread[u.Thread]; !ok {
			threads = append(threads, u.Thread)
		}
		byThread[u.Thread] = append(byThread[u.Thread], i)
	}
	sort.Ints(threads)
	drop := map[int]bool{}
	for _, th := range threads {
		units := byThread[th]
		if rng.Float64() >= cfg.Crash || len(units) < 2 {
			continue
		}
		// Keep a non-empty prefix; everything after the crash is lost.
		keep := 1 + rng.IntN(len(units)-1)
		rep.CrashedThreads++
		for _, pos := range units[keep:] {
			drop[pos] = true
			rep.UnitsLost++
		}
		last := &tr.Units[units[keep-1]]
		last.Quality |= trace.Truncated
	}
	if len(drop) == 0 {
		return
	}
	kept := tr.Units[:0]
	for i := range tr.Units {
		if !drop[i] {
			kept = append(kept, tr.Units[i])
		}
	}
	tr.Units = kept
}

// applyCounterFaults models perf_event multiplexing: full dropouts
// (counters zeroed, flagged) and extrapolation scaling error (cycles
// and miss counts scaled by a log-normal factor, unflagged — the
// profiler cannot tell an extrapolated read from an exact one).
func applyCounterFaults(tr *trace.Trace, cfg Config, rep *Report) {
	if cfg.CounterDrop <= 0 && cfg.Multiplex <= 0 {
		return
	}
	dropRNG := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedDrop))
	muxRNG := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedMux))
	for i := range tr.Units {
		u := &tr.Units[i]
		if cfg.CounterDrop > 0 && dropRNG.Float64() < cfg.CounterDrop {
			u.Counters = trace.Counters{}
			u.Quality |= trace.CountersMissing
			rep.CountersDropped++
			continue
		}
		if cfg.Multiplex > 0 && muxRNG.Float64() < cfg.Multiplex {
			f := stats.LogNormal(muxRNG, 1, cfg.MultiplexCoV)
			u.Counters.Cycles = uint64(float64(u.Counters.Cycles) * f)
			u.Counters.L1Misses = uint64(float64(u.Counters.L1Misses) * f)
			u.Counters.L2Misses = uint64(float64(u.Counters.L2Misses) * f)
			u.Counters.LLCMisses = uint64(float64(u.Counters.LLCMisses) * f)
			rep.Multiplexed++
		}
	}
}

// applySnapshotLoss drops individual call-stack snapshots (lost JVMTI
// requests) and flags the affected units, rebuilding the frame columns
// in one pass in unit order.
func applySnapshotLoss(tr *trace.Trace, cfg Config, rep *Report) {
	if cfg.SnapshotLoss <= 0 {
		return
	}
	rng := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedSnap))
	var cols trace.Trace // the rebuilt frame columns
	for i := range tr.Units {
		u := &tr.Units[i]
		s := tr.Snapshots(i)
		u.Snapshots = trace.Span{}
		for j := 0; j < s.Len(); j++ {
			if rng.Float64() < cfg.SnapshotLoss {
				rep.SnapshotsLost++
				continue
			}
			cols.AppendSnapshot(u, s.At(j))
		}
		if u.Snapshots.Len() < s.Len() {
			u.Quality |= trace.SnapshotsPartial
		}
	}
	tr.Frames, tr.FrameOff = cols.Frames, cols.FrameOff
}

// applyDuplicates re-uploads units (ack timeout → retry), appending
// copies that keep their original ids.
func applyDuplicates(tr *trace.Trace, cfg Config, rep *Report) {
	if cfg.Duplicate <= 0 {
		return
	}
	rng := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedDup))
	n := len(tr.Units)
	for i := 0; i < n; i++ {
		if rng.Float64() < cfg.Duplicate {
			tr.Units = append(tr.Units, tr.Units[i])
			rep.Duplicated++
		}
	}
}

// applyReorder permutes a random subset of unit positions (out-of-order
// delivery).
func applyReorder(tr *trace.Trace, cfg Config, rep *Report) {
	if cfg.Reorder <= 0 {
		return
	}
	rng := stats.NewRNG(stats.SplitSeed(cfg.Seed, seedReorder))
	var displaced []int
	for i := range tr.Units {
		if rng.Float64() < cfg.Reorder {
			displaced = append(displaced, i)
		}
	}
	if len(displaced) < 2 {
		return
	}
	perm := append([]int(nil), displaced...)
	rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
	orig := make([]trace.Unit, len(displaced))
	for k, pos := range displaced {
		orig[k] = tr.Units[pos]
	}
	moved := 0
	for k, pos := range displaced {
		if perm[k] != pos {
			moved++
		}
		tr.Units[pos] = orig[indexOf(displaced, perm[k])]
	}
	rep.Displaced += moved
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// CorruptBytes flips `flips` pseudo-random bits of a copy of data —
// byte-level trace corruption (torn writes, bad sectors) for exercising
// the decode path. Deterministic in (len(data), flips, seed).
func CorruptBytes(data []byte, flips int, seed uint64) []byte {
	out := append([]byte(nil), data...)
	if len(out) == 0 || flips <= 0 {
		return out
	}
	rng := stats.NewRNG(stats.SplitSeed(seed, seedCorrupt))
	for i := 0; i < flips; i++ {
		pos := rng.IntN(len(out))
		bit := uint(rng.IntN(8))
		out[pos] ^= 1 << bit
	}
	return out
}
