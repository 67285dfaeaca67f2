package main

import (
	"fmt"
	"slices"
)

// endToEnd lists the end-to-end metrics with their units. The p99s and the
// write p50 are per-layer (tail.*, client.write_p50_us): on the shared host
// they do not repeat within any bound the benchmark may set (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"knn_p50_us", "us"},
	{"range_p50_us", "us"},
	{"qknn_p50_us", "us"},
	{"batch_qps", "1/s"},
	{"qknn_recall", "ratio"},
}

// ops are the timed operations. Each has a p99 per layer; knn, range and
// qknn also have their p50 end to end.
var ops = []string{"knn", "range", "qknn", "write"}

// perLayerNames lists the per-layer metrics with their units; every one is
// reported on every workload.
var perLayerNames = []struct{ name, unit string }{
	{"serve.queue_linger_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.tile_us", "us"},
	{"serve.timer_flush_frac", "ratio"},
	{"serve.tile_fill", "queries"},
	{"serve.rejected", "count"},
	{"serve.write_p50_us", "us"},
	{"idist.knn_p50_us", "us"},
	{"idist.range_p50_us", "us"},
	{"idist.quant_knn_p50_us", "us"},
	{"idist.batch_knn_p50_us", "us"},
	{"idist.insert_p50_us", "us"},
	{"idist.delete_p50_us", "us"},
	{"idist.dist_ops_per_query", "count"},
	{"idist.allocs_per_query", "count"},
	{"btree.pages_per_query", "count"},
	{"core.reduce_s", "s"},
	{"core.generate_ellipsoid_busy_s", "s"},
	{"ellipkmeans.cluster_busy_s", "s"},
	{"core.dim_opt_busy_s", "s"},
	{"core.merge_busy_s", "s"},
	{"core.partitions", "count"},
	{"core.avg_dim", "dims"},
	{"core.outliers", "count"},
	{"quant.train_s", "s"},
	{"quant.code_bytes_per_vector", "bytes"},
	{"persist.load_s", "s"},
	{"persist.model_bytes", "bytes"},
	{"metrics.overhead_pct", "%"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.late_max_us", "us"},
	{"fail_frac", "ratio"},
	{"client.write_p50_us", "us"},
	{"tail.knn_p99_us", "us"},
	{"tail.range_p99_us", "us"},
	{"tail.qknn_p99_us", "us"},
	{"tail.write_p99_us", "us"},
	{"samples.knn", "count"},
	{"samples.range", "count"},
	{"samples.qknn", "count"},
	{"samples.write", "count"},
	{"samples.batch_queries", "count"},
}

// endToEnd computes the end-to-end metrics of one pass, and the latency
// distribution of each of ops, under the percentile rule; an under-sampled
// percentile is an error.
func (r *result) endToEnd() (map[string]metric, map[string]dist, error) {
	vals := map[string]float64{
		"setup_s": median(r.setup),
		"heap_mb": r.heapMB,
		// Queries per second of the median tile, so one stalled call
		// does not decide the run.
		"batch_qps": batchTile / median(r.lib.batch) * 1e6,
	}
	samples := map[string][]float64{"knn": r.knn, "range": r.rng, "qknn": r.qknn, "write": r.wr}
	dists := map[string]dist{}
	for _, op := range ops {
		d, err := summarize(op, samples[op])
		if err != nil {
			return nil, nil, err
		}
		dists[op] = d
		vals[op+"_p50_us"] = d.P50
	}
	rec, err := r.lib.recall()
	if err != nil {
		return nil, nil, err
	}
	vals["qknn_recall"] = rec
	out := map[string]metric{}
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out, dists, nil
}

// perLayer assembles the traced pass's per-layer metrics, the untraced
// pass's tails and sample counts, and the tracing overhead on every
// end-to-end metric: overhead.<metric>_pct is the traced pass's value over
// the untraced pass's, in percent above it.
func perLayer(un, tr *result) (map[string]metric, error) {
	eu, du, err := un.endToEnd()
	if err != nil {
		return nil, fmt.Errorf("untraced pass: %w", err)
	}
	et, _, err := tr.endToEnd()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	L := tr.layers
	L["fail_frac"] = tr.t.failFrac()
	for _, op := range ops {
		L["tail."+op+"_p99_us"] = du[op].P99
		L["samples."+op] = float64(du[op].N)
	}
	L["client.write_p50_us"] = du["write"].P50
	L["samples.batch_queries"] = float64(un.lib.batchQueries)
	late, err := summarize("generator lateness", tr.gaps)
	if err != nil {
		return nil, err
	}
	L["loadgen.late_p99_us"] = late.P99
	L["loadgen.late_max_us"] = slices.Max(tr.gaps)
	L["metrics.overhead_pct"] = pctOver(et["knn_p50_us"].Value, eu["knn_p50_us"].Value)

	out := map[string]metric{}
	for _, m := range perLayerNames {
		v, ok := L[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, m := range endToEnd {
		out["overhead."+m.name+"_pct"] = metric{Value: pctOver(et[m.name].Value, eu[m.name].Value), Unit: "%"}
	}
	return out, nil
}

// pctOver is how far traced lies above untraced, in percent of untraced.
func pctOver(traced, untraced float64) float64 {
	return (traced - untraced) / untraced * 100
}
