package main

import (
	"math"
	"runtime"
	"time"

	"simprof/internal/obs"
	"simprof/internal/phase"
)

// offlineWorkload is a closed loop of one client profiling in process:
// each operation is one profile of the next input, round robin.
type offlineWorkload struct {
	inputs    []input
	opts      phase.Options
	n         int // simulation points per profile
	digestOps int // leading profiles the output digest covers
	// qualityOps is how many leading profiles the quality metrics cover;
	// a run lasts at least that many profiles, so the metrics depend on
	// the code and the seed alone, not on how fast the host was.
	qualityOps int
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// runOffline runs an offline workload. Set-up is a warm-up pass that
// profiles each distinct input once, repeated setupReps times. In a
// traced run every other round of inputs is traced, so the traced and
// untraced profiles see the same inputs and the same drift. A failed
// profile counts at failLatency, as a failed request does.
func runOffline(rc runConfig, w offlineWorkload, r *report) (attempted, failed int) {
	if err := resetPeakRSS(); err != nil {
		r.check("peak RSS reset", false, "%v", err)
	}
	var setups []time.Duration
	var setupErrs int
	setupWin := hostWindow{start: readCPUTimes()}
	for rep := 0; rep < setupReps; rep++ {
		setupWin.probes = append(setupWin.probes, probe())
		t := time.Now()
		for j, in := range w.inputs {
			if op := runProfile(in, j, w.opts, w.n, seedFor(rc.seed, streamSetup, rep*len(w.inputs)+j), false); op.Err != nil {
				setupErrs++
			}
		}
		setups = append(setups, time.Since(t))
	}
	setupWin.end = readCPUTimes()
	r.setAtRef("setup_s", "s", medianDur(setups).Seconds(), setupWin, false)
	windowLedger(r, "ledger.setup", setupWin)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	obsBefore := obs.Default().Snapshot()
	var ops []profileOp
	var lates []float64
	// The host's speed is probed between profiles, at most every
	// probeInterval, so no probe shares a CPU with the profile's workers.
	run := hostWindow{probes: []probeSample{probe()}, start: readCPUTimes()}
	start := time.Now()
	prevEnd := start
	// A traced run also lasts at least until its first traced round is
	// done, however short the run or slow the machine.
	minOps := w.qualityOps
	if rc.traced {
		minOps = max(minOps, 2*len(w.inputs))
	}
	for i := 0; time.Since(start) < rc.seconds || i < minOps; i++ {
		j := i % len(w.inputs)
		traced := rc.traced && (i/len(w.inputs))%2 == 1
		lates = append(lates, ms(time.Since(prevEnd)))
		ops = append(ops, runProfile(w.inputs[j], j, w.opts, w.n, seedFor(rc.seed, streamProfile, i), traced))
		if time.Since(run.probes[len(run.probes)-1].At) >= probeInterval {
			run.probes = append(run.probes, probe())
		}
		prevEnd = time.Now()
	}
	run.end = readCPUTimes()
	runtime.ReadMemStats(&ms1)
	c := diffSnapshots(obsBefore, obs.Default().Snapshot())
	if hwm, err := peakRSS("self"); err != nil {
		r.check("peak RSS read", false, "%v", err)
	} else {
		r.set("rss_peak_mb", "MB", hwm)
	}

	var lat, tracedLat []float64
	var busy time.Duration
	done := 0
	var ests []estimate
	for i, op := range ops {
		if op.Err != nil {
			failed++
			if !op.Traced {
				lat = append(lat, ms(failLatency))
			}
			continue
		}
		if op.Traced {
			tracedLat = append(tracedLat, ms(op.Total))
		} else {
			lat = append(lat, ms(op.Total))
			busy += op.Total
			done++
		}
		if i < w.qualityOps {
			ests = append(ests, estimate{op.Est, op.Lo, op.Hi, w.inputs[op.Input].Oracle})
		}
		if len(r.digest.lines) < w.digestOps {
			r.digest.add(op.digestLine())
		}
	}
	attempted = len(ops)
	tp := tailPercentile(len(lat))
	windowLedger(r, "ledger.run", run)
	r.setAtRef("latency_ms_p50", "ms", percentile(lat, 50), run, false)
	r.setAtRef("latency_ms_tail", "ms", percentile(lat, tp), run, false)
	r.set("ledger.tail_percentile", "count", float64(tp))
	r.set("ledger.latency_samples", "count", float64(len(lat)))
	r.setAtRef("throughput_per_s", "1/s", ratio(float64(done), busy.Seconds()), run, true)
	r.set("ledger.units_per_s", "units/s", ratio(float64(untracedUnits(ops, w.inputs)), busy.Seconds()))
	if !rc.traced {
		r.set("ledger.alloc_mb_per_op", "MB", ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6, float64(len(ops))))
	}
	qualityMetrics(r, ests)

	r.set("loadgen.sent", "count", float64(attempted))
	r.set("loadgen.ok", "count", float64(attempted-failed))
	r.set("loadgen.failed", "count", float64(failed))
	r.set("loadgen.late_ms_p99", "ms", percentile(lates, 99))
	idleServiceLayers(r)
	if rc.traced {
		pipelineLayers(r, ops, w.inputs, c, percentile(lat, 50))
		r.set("obs.traced_overhead_pct", "%", 100*(percentile(tracedLat, 50)/percentile(lat, 50)-1))
	}

	r.check("no profile errors", failed == 0 && setupErrs == 0, "%d measured and %d set-up profiles failed", failed, setupErrs)
	profileChecks(r, ops, w.n)
	if rc.traced {
		tracedChecks(r, ops)
	}
	return attempted, failed
}

// untracedUnits counts the trace units the untraced profiles profiled.
func untracedUnits(ops []profileOp, inputs []input) int {
	n := 0
	for _, op := range ops {
		if op.Err == nil && !op.Traced {
			n += inputs[op.Input].Units
		}
	}
	return n
}

// profileChecks verifies every profile's outputs: the allocation spends
// exactly the requested sample, the reported CI contains the estimate,
// and re-estimating on the trace from the chosen points reproduces it.
func profileChecks(r *report, ops []profileOp, n int) {
	badAlloc, badCI, badEst := 0, 0, 0
	for _, op := range ops {
		if op.Err != nil {
			continue
		}
		total := 0
		for _, a := range op.Alloc {
			total += a
		}
		if total != min(n, op.Units) {
			badAlloc++
		}
		if !(op.Lo <= op.Est && op.Est <= op.Hi) {
			badCI++
		}
		if math.Abs(op.EstOnTrace-op.Est) > 1e-9*math.Abs(op.Est) {
			badEst++
		}
	}
	r.check("allocation sums to n", badAlloc == 0, "%d profiles with Σalloc ≠ n=%d", badAlloc, n)
	r.check("CI contains estimate", badCI == 0, "%d profiles", badCI)
	r.check("estimate on trace agrees", badEst == 0, "%d profiles differ by more than 1e-9 relative", badEst)
}

// tracedChecks verifies the traced ledger: traced profiles ran, and each
// ChooseK rerun reproduced Form's clustering.
func tracedChecks(r *report, ops []profileOp) {
	differ, traced := 0, 0
	for _, op := range ops {
		if op.Err != nil || !op.Traced {
			continue
		}
		traced++
		if !op.ChooseKSame {
			differ++
		}
	}
	r.check("traced profiles ran", traced > 0, "%d traced profiles", traced)
	r.check("ChooseK rerun identical", differ == 0, "%d of %d reruns chose a different K or assignment", differ, traced)
}

// estimate is one reported CPI estimate against the true CPI.
type estimate struct{ Est, Lo, Hi, Oracle float64 }

// qualityMetrics publishes the estimate's quality over a run: the mean
// relative error against the oracle CPI, the mean relative CI
// half-width, and the share of CIs that contain the oracle.
func qualityMetrics(r *report, ests []estimate) {
	var errs, half []float64
	covered := 0
	for _, e := range ests {
		errs = append(errs, math.Abs(e.Est-e.Oracle)/e.Oracle)
		half = append(half, (e.Hi-e.Lo)/2/e.Est)
		if e.Lo <= e.Oracle && e.Oracle <= e.Hi {
			covered++
		}
	}
	r.set("sampling.cpi_err_pct", "%", 100*mean(errs))
	r.set("ci_halfwidth_pct", "%", 100*mean(half))
	r.set("ci_cover_pct", "%", pct(float64(covered), float64(len(ests))))
	r.set("ledger.quality_profiles", "count", float64(len(ests)))
	if len(ests) == 0 {
		r.check("estimates produced", false, "no estimates")
	}
}
