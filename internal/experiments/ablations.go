package experiments

import (
	"strings"

	"simprof/internal/core"
	"simprof/internal/exec"
	"simprof/internal/sampling"
	"simprof/internal/stats"
	"simprof/internal/workloads"
)

// The paper leaves the sampling-unit size and snapshot cadence as user
// tunables ("The sampling unit size and the frequency of a snapshot can
// be tuned based on the users' need", §III-A) and proposes combining
// SimProf with systematic sub-unit sampling as future work (§III-C).
// The ablations here quantify those dials on one workload.

// AblationRow is one sweep point of a profiling-parameter ablation.
type AblationRow struct {
	Label       string
	UnitInstr   uint64
	Snapshots   int // snapshots per unit
	Units       int
	Phases      int
	WeightedCoV float64
	SimProfErr  float64 // mean over Repeats draws, n = SampleSize
}

// ablationProfile profiles the workload at a given profiler setting and
// evaluates phase formation + SimProf accuracy.
func (s *Suite) ablationProfile(k string, unitInstr, snapEvery uint64) (AblationRow, error) {
	bench, fw, err := splitKey(k)
	if err != nil {
		return AblationRow{}, err
	}
	in, err := workloads.DefaultInput(bench, s.cfg.Opts)
	if err != nil {
		return AblationRow{}, err
	}
	cfg := s.cfg.Core
	cfg.Profiler.UnitInstr = unitInstr
	cfg.Profiler.SnapshotEvery = snapEvery
	tr, err := core.ProfileWorkload(bench, fw, in, s.cfg.Opts, cfg)
	if err != nil {
		return AblationRow{}, err
	}
	ph, err := core.FormPhases(tr, cfg)
	if err != nil {
		return AblationRow{}, err
	}
	row := AblationRow{
		UnitInstr: unitInstr,
		Snapshots: int(unitInstr / snapEvery),
		Units:     len(tr.Units),
		Phases:    ph.K,
	}
	row.WeightedCoV = ph.CoV().Weighted
	for r := 0; r < s.cfg.Repeats; r++ {
		sp, err := sampling.SimProf(ph, s.cfg.SampleSize, s.cfg.Seed+uint64(5000+r))
		if err != nil {
			return AblationRow{}, err
		}
		row.SimProfErr += sp.Err(tr) / float64(s.cfg.Repeats)
	}
	return row, nil
}

// AblationUnitSize sweeps the sampling-unit size on wc_hp. Smaller
// units mean more of them (finer coverage, more simulation overhead per
// retained instruction) and shorter snapshots windows; the paper uses
// 100M to amortize simulator warm-up.
func (s *Suite) AblationUnitSize() ([]AblationRow, error) {
	var rows []AblationRow
	for _, unit := range []uint64{2_000_000, 5_000_000, 10_000_000, 20_000_000, 50_000_000} {
		row, err := s.ablationProfile("wc_hp", unit, unit/10) // paper's 10 snapshots/unit
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// AblationSnapshotRate sweeps the snapshot cadence at a fixed 10M unit:
// too few snapshots miss short-lived call stacks and degrade phase
// separability; too many only add profiling overhead.
func (s *Suite) AblationSnapshotRate() ([]AblationRow, error) {
	const unit = 10_000_000
	var rows []AblationRow
	for _, every := range []uint64{5_000_000, 2_000_000, 1_000_000, 500_000, 250_000} {
		row, err := s.ablationProfile("wc_hp", unit, every)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// NodesRow is one sweep point of the cluster-topology ablation.
type NodesRow struct {
	Nodes       int
	OracleCPI   float64
	WeightedCoV float64
	Phases      int
}

// AblationNodes profiles wc_sp on the same 4 cores arranged as 1, 2 and
// 4 cluster nodes. More nodes mean fewer co-runners per shared LLC, so
// the contention component of both the mean CPI and the within-phase
// variance shrinks — the scale-out deployment effect on profile shape.
func (s *Suite) AblationNodes() ([]NodesRow, error) {
	in, err := workloads.DefaultInput("wc", s.cfg.Opts)
	if err != nil {
		return nil, err
	}
	var rows []NodesRow
	for _, nodes := range []int{1, 2, 4} {
		cfg := s.cfg.Core
		cfg.Machine.Nodes = nodes
		tr, err := core.ProfileWorkload("wc", "spark", in, s.cfg.Opts, cfg)
		if err != nil {
			return nil, err
		}
		ph, err := core.FormPhases(tr, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, NodesRow{
			Nodes:       nodes,
			OracleCPI:   tr.OracleCPI(),
			WeightedCoV: ph.CoV().Weighted,
			Phases:      ph.K,
		})
	}
	return rows, nil
}

// ColdStartRow is one sweep point of the simulation-warmup ablation.
type ColdStartRow struct {
	UnitInstr    uint64
	WarmupFrac   float64 // fraction of the unit spent refilling caches
	BiasedCPI    float64 // estimate a cold-started detailed simulator reports
	TrueCPI      float64
	RelativeBias float64
}

// AblationColdStart quantifies the paper's §III-A rationale for large
// (100M-instruction) sampling units: a detailed simulator starts each
// selected unit with cold caches, and the refill cost biases the
// measured CPI by warmup/unit — negligible at 100M, severe at 1M. The
// warmup model: the unit's working set must be refetched once (one miss
// per line at full memory latency), which costs roughly
// ws/line × penalty cycles spread over the unit.
func (s *Suite) AblationColdStart() ([]ColdStartRow, error) {
	ph, err := s.Phases("wc_sp")
	if err != nil {
		return nil, err
	}
	tr := ph.Trace
	trueCPI := tr.OracleCPI()
	hier := s.cfg.Core.Machine.Hier

	// Average working set to refill ≈ the LLC-resident footprint the
	// dominant phases keep live (one miss per line); prefetchers cover
	// most of the sequential refill, hence the 0.3 exposure factor.
	const prefetchExposure = 0.3
	refillCycles := float64(hier.LLC.SizeBytes/hier.LLC.LineBytes) * hier.PenaltyMem * prefetchExposure
	var rows []ColdStartRow
	for _, unit := range []uint64{1_000_000, 2_000_000, 5_000_000, 10_000_000,
		20_000_000, 50_000_000, 100_000_000} {
		warmInstr := refillCycles / trueCPI // instructions worth of refill stall
		frac := warmInstr / float64(unit)
		biased := trueCPI * (1 + frac)
		rows = append(rows, ColdStartRow{
			UnitInstr:    unit,
			WarmupFrac:   frac,
			BiasedCPI:    biased,
			TrueCPI:      trueCPI,
			RelativeBias: (biased - trueCPI) / trueCPI,
		})
	}
	return rows, nil
}

// DesignRow is one candidate machine design in the design-space
// exploration demo.
type DesignRow struct {
	Design    string
	OracleCPI float64 // full run of the workload on the design
	EstCPI    float64 // estimate from the profiled machine's 20 points
	Err       float64
}

// DesignExploration is the end use-case of SimProf: pick simulation
// points once on the profiled baseline machine, then evaluate candidate
// designs by detail-simulating *only those points* and reading the
// stratified estimate. The rows compare that estimate against the
// (normally unaffordable) full-run oracle on each design.
func (s *Suite) DesignExploration() ([]DesignRow, error) {
	const k = "wc_sp"
	ph, err := s.Phases(k)
	if err != nil {
		return nil, err
	}
	sp, err := sampling.SimProf(ph, s.cfg.SampleSize, s.cfg.Seed+77)
	if err != nil {
		return nil, err
	}
	bench, fw, err := splitKey(k)
	if err != nil {
		return nil, err
	}
	in, err := workloads.DefaultInput(bench, s.cfg.Opts)
	if err != nil {
		return nil, err
	}

	baseline := s.cfg.Core
	designs := []struct {
		label  string
		mutate func(*core.Config)
	}{
		{"baseline (10MB LLC, 220cy mem)", func(c *core.Config) {}},
		{"half LLC (5MB)", func(c *core.Config) { c.Machine.Hier.LLC.SizeBytes = 5 << 20 }},
		{"double LLC (20MB)", func(c *core.Config) { c.Machine.Hier.LLC.SizeBytes = 20 << 20 }},
		{"slow memory (330cy)", func(c *core.Config) { c.Machine.Hier.PenaltyMem = 330 }},
		{"fast memory (140cy)", func(c *core.Config) { c.Machine.Hier.PenaltyMem = 140 }},
	}
	var rows []DesignRow
	for _, d := range designs {
		cfg := baseline
		d.mutate(&cfg)
		target, err := core.ProfileWorkload(bench, fw, in, s.cfg.Opts, cfg)
		if err != nil {
			return nil, err
		}
		est, err := sampling.EstimateOnTrace(ph, sp, target)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DesignRow{
			Design:    d.label,
			OracleCPI: target.OracleCPI(),
			EstCPI:    est.EstCPI,
			Err:       est.Err(target),
		})
	}
	return rows, nil
}

// GCRow is one sweep point of the garbage-collection ablation.
type GCRow struct {
	Label     string
	Phases    int
	OracleCPI float64
	// GCShare is the fraction of call-stack snapshots taken inside the
	// collector.
	GCShare float64
}

// AblationGC profiles wc_sp with the JVM garbage-collection model off
// and on at two young-generation sizes — the managed-runtime visibility
// the paper motivates SimProf's method-level phases with.
func (s *Suite) AblationGC() ([]GCRow, error) {
	configs := []struct {
		label string
		gc    exec.GCConfig
	}{
		{"GC off", exec.GCConfig{}},
		{"GC, 256MB young gen", exec.GCConfig{Enabled: true, YoungGenBytes: 256 << 20}},
		{"GC, 64MB young gen", exec.GCConfig{Enabled: true, YoungGenBytes: 64 << 20}},
	}
	in, err := workloads.DefaultInput("wc", s.cfg.Opts)
	if err != nil {
		return nil, err
	}
	var rows []GCRow
	for _, c := range configs {
		opts := s.cfg.Opts
		opts.GC = c.gc
		tr, err := core.ProfileWorkload("wc", "spark", in, opts, s.cfg.Core)
		if err != nil {
			return nil, err
		}
		ph, err := core.FormPhases(tr, s.cfg.Core)
		if err != nil {
			return nil, err
		}
		row := GCRow{Label: c.label, Phases: ph.K, OracleCPI: tr.OracleCPI()}
		// Fraction of snapshots inside the collector.
		gcFrames := map[int32]bool{}
		for _, m := range tr.Methods {
			if strings.HasPrefix(m.Class, "sun.jvm.") {
				gcFrames[int32(m.ID)] = true
			}
		}
		total, gc := 0, 0
		for i := range tr.Units {
			s := tr.Snapshots(i)
			for j := 0; j < s.Len(); j++ {
				total++
				for _, id := range s.At(j) {
					if gcFrames[int32(id)] {
						gc++
						break
					}
				}
			}
		}
		if total > 0 {
			row.GCShare = float64(gc) / float64(total)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CombinedRow is one sweep point of the SimProf+systematic ablation.
type CombinedRow struct {
	Fraction     float64
	DetailInstr  uint64
	MarginOfErr  float64 // z·SE at the suite confidence
	SpeedupVsAll float64 // population instructions / detailed instructions
}

// AblationCombined sweeps the sub-unit systematic-sampling fraction on
// wc_hp — the paper's future-work dial trading detailed-simulation
// budget against the width of the confidence interval.
func (s *Suite) AblationCombined() ([]CombinedRow, error) {
	ph, err := s.Phases("wc_hp")
	if err != nil {
		return nil, err
	}
	popInstr := uint64(len(ph.Trace.Units)) * ph.Trace.UnitInstr
	z := stats.ZForConfidence(s.cfg.Confidence)
	var rows []CombinedRow
	for _, frac := range []float64{1, 0.5, 0.25, 0.1} {
		res, err := sampling.SimProfSystematic(ph, sampling.CombinedConfig{
			Points: s.cfg.SampleSize, SubUnitFraction: frac, Seed: s.cfg.Seed + 31,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CombinedRow{
			Fraction:     frac,
			DetailInstr:  res.DetailInstructions,
			MarginOfErr:  z * res.SE,
			SpeedupVsAll: float64(popInstr) / float64(res.DetailInstructions),
		})
	}
	return rows, nil
}
