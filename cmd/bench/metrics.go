package main

import "expanse/internal/sources"

// metricDef declares one metric: the name and unit it is printed with,
// which direction is better, and — for end-to-end metrics — the share of
// the parent's median by which it may worsen before -against (and the
// PR gate) calls it a regression. BENCHMARK.json carries the same
// tables; TestMetricsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the daily hitlist service sees, measured
// in the untraced run. Every workload emits every one of them, so they
// are the quantities all four workloads share, and — because the gate
// compares runs of different seeds, whose worlds differ by several
// percent in size — the two timings are per unit of work. The raw and
// workload-specific timings (run_s, collect_s, days_s, resume_s, …) are
// printed as phases. All times are reference seconds (calib.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_kops", "kops/s", "higher", 0.25},
	{"first_output_us_per_addr", "us/addr", "lower", 0.25},
	{"peak_rss_mib", "MiB", "lower", 0.20},
	{"live_heap_mib", "MiB", "lower", 0.20},
}

// perLayer is the layer account of the traced run. Layer = package.
// Except for the three times every workload measures (trace.total_s and
// the two standalone constructors), busy time is carried as a share of
// trace.total_s: a layer a workload bypasses reads 0 there on every
// run, and a constant does not pass for a measured time. Absolute span
// times are in out/trace-<workload>.json.
var perLayer = layerDefs()

func layerDefs() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("s", "lower", "trace.total_s", "netsim.new_s", "dnssim.new_s")
	add("%", "higher", "trace.coverage_pct")

	// Main path: share of trace.total_s spent inside each public call.
	add("%", "lower",
		"core.new_pct", "core.collect_pct", "core.probeday_pct", "core.seal_pct",
		"core.runapd_pct", "core.checkpoint_pct", "core.resume_pct",
		"core.sweep_cold_pct", "core.sweep_sorted_pct", "core.sweep_unsorted_pct",
		"core.pairs_pct", "core.reports_pct")
	for _, id := range tracedReports {
		add("%", "lower", "core.report."+id+"_pct")
	}
	add("%", "lower", "core.report.other_pct")

	// Kernel replays: sibling spans outside the main path, as a share of
	// trace.total_s so they compare with the call that contains them.
	for _, name := range sources.Names {
		add("%", "lower", "sources.collect."+sourceShort[name]+"_pct")
	}
	add("%", "lower",
		"ip6.add_pct", "ip6.compact_pct",
		"apd.candidates_pct", "apd.window_merge_pct", "apd.filter_compile_pct", "apd.split_pct",
		"probe.sweep_seal_pct", "core.seal_residual_pct", "core.resume_decode_pct",
		"eip.build_pct", "eip.generate_pct", "sixgen.generate_pct",
		"entropy.byprefix_pct", "entropy.fingerprint_pct", "cluster.elbow_pct")

	add("Mprobes/s", "higher",
		"netsim.probebatch_cold_mpps", "netsim.probebatch_sorted_mpps",
		"netsim.probebatch_unsorted_mpps", "netsim.probebatch_fanout_mpps",
		"netsim.probe_single_mpps", "apd.probeday_mpps",
		"core.sweep_sorted_mpps", "core.sweep_unsorted_mpps",
		"probe.scancolumns_mpps", "probe.pairs_mpps")
	add("1/s", "higher", "core.days_per_s")
	add("ratio", "lower", "core.day_p80_over_p50")
	add("MB/s", "higher", "core.checkpoint_mb_per_s", "snap.encode_mb_per_s", "snap.decode_mb_per_s")

	add("count", "lower", "sources.addrs_collected", "apd.probes_sent",
		"apd.candidates_day0", "apd.candidates_final", "apd.filter_intervals",
		"apd.aliased_prefixes", "core.checkpoint_bytes")
	add("ratio", "higher", "sources.dedup_ratio", "apd.precision", "apd.recall", "probe.responsive_share")
	add("ratio", "lower", "apd.narrow_ratio")

	add("count", "lower", "runtime.gc_cycles", "runtime.mallocs")
	add("%", "lower", "runtime.gc_cpu_pct")
	add("MiB", "lower", "runtime.alloc_mib")
	return defs
}

// tracedReports are the reports that cost more than ~1 % of the family
// at the reports workload's size; the other 21 share one metric.
var tracedReports = []string{"table1", "fig3a", "table4", "table5", "table6", "sec55", "fig8", "sec72", "ablation"}

// sourceShort maps a sources.Source name to its metric-name fragment.
var sourceShort = map[string]string{
	"Domainlists": "DL", "FDNS": "FDNS", "CT": "CT", "AXFR": "AXFR",
	"Bitnodes": "Bitnodes", "RIPE Atlas": "Atlas", "Scamper": "Scamper",
}
