package main

import (
	"time"

	"simprof/internal/obs"
)

// counters is the change in obs metrics across a measured window, keyed
// by name plus "{labels}" for labeled children. Histograms carry their
// observation count in value and their running sum in sum.
type counters map[string]struct{ value, sum float64 }

func metricKey(m obs.Metric) string {
	if k := m.LabelsKey(); k != "" {
		return m.Name + "{" + k + "}"
	}
	return m.Name
}

// diffSnapshots subtracts one obs snapshot from a later one.
func diffSnapshots(before, after []obs.Metric) counters {
	base := map[string]obs.Metric{}
	for _, m := range before {
		base[metricKey(m)] = m
	}
	out := counters{}
	for _, m := range after {
		b := base[metricKey(m)]
		out[metricKey(m)] = struct{ value, sum float64 }{m.Value - b.Value, m.Sum - b.Sum}
	}
	return out
}

func (c counters) v(key string) float64 { return c[key].value }

// histMean is a histogram's mean observation over the window.
func (c counters) histMean(key string) float64 { return ratio(c[key].sum, c[key].value) }

// pipelineLayers publishes the pipeline's per-layer metrics: stage times
// from the benchmark-timed traced profiles, work counts from the obs
// counters the pipeline recorded while they ran. refMS is the end-to-end
// time the stages should account for; ledger.stage_sum_pct is the sum
// of the stage medians as a share of it.
func pipelineLayers(r *report, ops []profileOp, inputs []input, c counters, refMS float64) {
	var decode, form, self, freg, choosek, simprof, estimate, traced []time.Duration
	var bytes, allocs, ks []float64
	for _, op := range ops {
		if op.Err != nil {
			continue
		}
		ks = append(ks, float64(op.K))
		if !op.Traced {
			continue
		}
		decode = append(decode, op.Decode)
		form = append(form, op.Form)
		self = append(self, op.FormSelf())
		freg = append(freg, op.FRegression)
		choosek = append(choosek, op.ChooseK)
		simprof = append(simprof, op.SimProf)
		estimate = append(estimate, op.Estimate)
		traced = append(traced, op.Total)
		bytes = append(bytes, float64(len(inputs[op.Input].Data)))
		allocs = append(allocs, float64(op.AllocBytes))
	}
	p50 := func(ds []time.Duration) float64 { return percentile(msOf(ds), 50) }
	var decodeSec float64
	for _, d := range decode {
		decodeSec += d.Seconds()
	}
	r.set("trace.decode_ms_p50", "ms", p50(decode))
	r.set("trace.decode_mb_s", "MB/s", ratio(sum(bytes)/1e6, decodeSec))
	r.set("tracebin.zero_copy_pct", "%", pct(c.v("tracebin.zero_copy_columns"), c.v("tracebin.zero_copy_columns")+c.v("tracebin.copied_columns")))
	r.set("phase.form_ms_p50", "ms", p50(form))
	r.set("phase.form_self_ms_p50", "ms", p50(self))
	r.set("phase.freq_adopted_pct", "%", pct(c.v("phase.freq_adopted"), c.v("phase.form_runs")))
	r.set("stats.fregression_ms_p50", "ms", p50(freg))
	r.set("cluster.choosek_ms_p50", "ms", p50(choosek))
	r.set("cluster.ks_per_sweep", "count", ratio(c.v("cluster.choosek_ks"), c.v("cluster.choosek_sweeps")))
	r.set("cluster.lloyd_iters_mean", "count", c.histMean("cluster.lloyd_iters"))
	r.set("cluster.dist_pruned_pct", "%", pct(c.v("cluster.distances_pruned"), c.v("cluster.distances_pruned")+c.v("cluster.distances_computed")))
	r.set("cluster.k_chosen_mean", "count", mean(ks))
	r.set("sampling.simprof_ms_p50", "ms", p50(simprof))
	r.set("sampling.estimate_ms_p50", "ms", p50(estimate))
	r.set("sampling.imputed_strata", "count", c.v("sampling.imputed_strata"))
	r.set("parallel.chunks_per_op", "count", ratio(c.v("parallel.chunks"), c.v("phase.form_runs")))
	r.set("parallel.helper_denied_pct", "%", pct(c.v("parallel.helper_denied"), c.v("parallel.helpers")+c.v("parallel.helper_denied")))
	r.set("pipeline.alloc_mb_per_op", "MB", mean(allocs)/1e6)
	r.set("ledger.stage_sum_pct", "%", pct(p50(decode)+p50(form)+p50(simprof)+p50(estimate), refMS))
	r.set("ledger.profile_ms_p50", "ms", p50(traced))
	r.set("ledger.traced_profiles", "count", float64(len(traced)))
}

// idleServiceLayers publishes the service-side layer metrics of a
// workload that never reaches simprofd: no requests, so no shares, hits
// or appends.
func idleServiceLayers(r *report) {
	for _, name := range []string{
		"loadgen.conn_wait_pct", "server.transport_pct", "server.exec_pct",
		"batch.enqueue_wait_pct", "batch.hit_pct", "batch.coalesced_pct", "history.append_pct",
	} {
		r.set(name, "%", 0)
	}
	for _, name := range []string{
		"batch.flush_size_mean", "batch.evictions", "history.fsyncs",
		"resilience.admit_rejected", "resilience.retries", "resilience.breaker_opens",
	} {
		r.set(name, "count", 0)
	}
	r.set("history.store_mb_end", "MB", 0)
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}
