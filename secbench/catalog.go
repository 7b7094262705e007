package main

import (
	"strconv"
	"strings"

	"secndp/internal/telemetry"
)

// metricDef is one reported metric. End-to-end metrics are what a caller
// of the system sees and come from untraced runs; per-layer metrics come
// from a traced run and explain the end-to-end ones.
type metricDef struct {
	name, unit  string
	lowerBetter bool
}

// endToEnd lists the end-to-end metrics every workload reports with
// --trace 0. BENCHMARK.json mirrors this list (a test keeps them equal).
// The report also prints p99_ms and fail_ratio, which are not in the list:
// fail_ratio's healthy value is 0, and p99_ms swings with the Go
// collector's mark-assist stalls from run to run (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"p50_ms", "ms", true},
	{"rows_per_s", "1/s", false},
	{"capacity_rps", "1/s", false},
	{"cpu_us_per_op", "us", true},
	{"heap_mb", "MiB", true},
	{"verified_ratio", "ratio", false},
	{"refresh_s", "s", true},
}

// perLayer lists the per-layer metrics every workload reports with
// --trace 1. Timings of layers a workload does not drive come from the
// layer ladder its traced run replays (see runLadder); other metrics of
// such layers read 0.
var perLayer = []metricDef{
	{"serve.cache_hit_rate", "ratio", false},
	{"serve.coalescing_factor", "ratio", false},
	{"serve.rows_per_batch", "count", false},
	{"serve.window_flush_share", "ratio", true},
	{"serve.wait_ms", "ms", true},
	{"secndp.query_us", "us", true},
	{"secndp.facade_overhead_us", "us", true},
	{"secndp.batch_ms", "ms", true},
	{"secndp.create_table_s", "s", true},
	{"secndp.fanout_share", "ratio", true},
	{"core.query_verified_us", "us", true},
	{"core.pad_us", "us", true},
	{"core.tag_us", "us", true},
	{"core.ndp_us", "us", true},
	{"core.verify_us", "us", true},
	{"core.dedup_ratio", "ratio", false},
	{"core.padcache_hit_rate", "ratio", false},
	{"core.bisections", "count", true},
	{"otp.native_share", "ratio", false},
	{"otp.pad_gbps", "GB/s", false},
	{"remote.batch_wire_ms", "ms", true},
	{"remote.server_op_ms", "ms", true},
	{"remote.wire_ops_per_batch", "count", true},
	{"remote.retries", "count", true},
	{"remote.dials", "count", true},
	{"cluster.shard_ms", "ms", true},
	{"cluster.shard_skew", "ratio", true},
	{"cluster.failovers", "count", true},
	{"cluster.mirror_fills", "count", true},
	{"cluster.stale_gathers", "count", true},
	{"runtime.allocs_per_op", "count", true},
	{"runtime.gc_pause_ms", "ms", true},
	{"bench.late_ms", "ms", true},
	{"bench.trace_overhead_pct", "%", true},
	{"bench.fail_ratio", "ratio", true},
}

// outcome is everything one workload run produced.
type outcome struct {
	e2e   map[string]float64
	layer map[string]float64
	// attempted and failed count operations across the run's measured
	// phases; mismatches counts oracle disagreements among them.
	attempted, failed, mismatches int64
	// samples records how many observations back each timing metric.
	samples map[string]int
	// info is the run's provenance beyond the process-wide fields: table
	// shapes, offered rate, client count.
	info  map[string]any
	rec   *recorder
	snaps map[string]telemetry.Snapshot
	// padBytes is the OTP bytes (data rows plus tag blocks) one ladder
	// query computes; it turns core.pad_us into otp.pad_gbps.
	padBytes float64
}

func newOutcome() *outcome {
	return &outcome{
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]int{},
		info:    map[string]any{},
		snaps:   map[string]telemetry.Snapshot{},
	}
}

// addPhase folds a measured phase's failures into the run totals.
func (o *outcome) addPhase(t *tally) {
	o.attempted += t.attempted.Load()
	o.failed += t.failed.Load()
}

// layerFromSnap fills the per-layer metrics a registry delta observed:
// a ratio or mean whose denominator is zero is left as it was, so a value
// the layer ladder measured stays unless the workload's own traced phase
// observed that layer too. Event counts are always set.
func (o *outcome) layerFromSnap(d snap) {
	L := o.layer
	set := func(name string, num, den float64) {
		if den > 0 {
			L[name] = num / den
		}
	}
	mean := func(name, hist string) {
		h := d.hists[hist]
		set(name, float64(h.SumNs)/1e3, float64(h.Count)) // µs
	}
	pipelined, fanout := d.c("secndp_batch_pipelined_total"), d.c("secndp_batch_fanout_total")
	set("secndp.fanout_share", fanout, pipelined+fanout)
	mean("core.pad_us", "secndp_phase_pad_seconds")
	mean("core.tag_us", "secndp_phase_tag_seconds")
	mean("core.ndp_us", "secndp_phase_ndp_seconds")
	mean("core.verify_us", "secndp_phase_verify_seconds")
	refs, distinct := d.c("secndp_batch_rowrefs_total"), d.c("secndp_batch_distinct_rows_total")
	set("core.dedup_ratio", refs-distinct, refs)
	L["core.bisections"] = d.c("secndp_batch_bisections_total")
	native := d.c("secndp_otp_engine_native_total")
	set("otp.native_share", native, native+d.c("secndp_otp_engine_stream_total")+d.c("secndp_otp_engine_perblock_total"))

	// Server side: every served operation's histogram, pooled.
	var opNs, opCount, serverOps float64
	for name, h := range d.hists {
		if strings.HasPrefix(name, "secndp_server_op_") {
			opNs += float64(h.SumNs)
			opCount += float64(h.Count)
		}
	}
	for name, v := range d.counters {
		if strings.HasPrefix(name, "secndp_server_ops_") && name != "secndp_server_ops_trace_ctx_total" {
			serverOps += float64(v)
		}
	}
	set("remote.server_op_ms", opNs/1e6, opCount)
	set("remote.wire_ops_per_batch", serverOps, pipelined+fanout)
	L["remote.retries"] = d.c("secndp_transport_retries_total")
	L["remote.dials"] = d.c("secndp_transport_dials_total")

	var shardP50 []float64
	var shardNs, shardCount float64
	for s := 0; ; s++ {
		name := "secndp_cluster_shard" + strconv.Itoa(s) + "_seconds"
		h, ok := d.hists[name]
		if !ok {
			break
		}
		shardNs += float64(h.SumNs)
		shardCount += float64(h.Count)
		if h.Count > 0 {
			shardP50 = append(shardP50, d.histP50Ms(name))
		}
	}
	set("cluster.shard_ms", shardNs/1e6, shardCount)
	if len(shardP50) > 1 {
		lo, hi := shardP50[0], shardP50[0]
		for _, v := range shardP50 {
			lo, hi = min(lo, v), max(hi, v)
		}
		set("cluster.shard_skew", hi, lo)
	}
	L["cluster.failovers"] = d.c("secndp_cluster_replica_failovers_total")
	L["cluster.mirror_fills"] = d.c("secndp_cluster_mirror_fills_total")
	L["cluster.stale_gathers"] = d.c("secndp_cluster_stale_gathers_total")
}
