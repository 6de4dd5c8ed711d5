package perf

// Metric names and units. The timed phase reports EndToEnd, the traced
// phase PerLayer; BENCHMARK.json lists the same names with their
// direction and, for end-to-end metrics, the regression bound (a test
// keeps the two in step).
var (
	EndToEnd = []string{"mrec_per_s", "op_us_p50", "op_us_p90", "setup_s", "rss_mb"}
	PerLayer = []string{
		"deps.extract_ns_per_record", "deps.extract_share",
		"core.classify_ns_per_dep", "core.classify_share",
		"nn.forward_ns_per_window", "nn.forward_share",
		"core.deploy_us", "core.deploy_share",
		"core.replay_us", "core.replay_share",
		"pipeline.call_us", "pipeline.call_share",
		"trace.decode_share", "deps.correct_set_share",
		"stages.collect_share", "ranking.rank_share", "rca.analyze_share",
		"layers.unattributed_share",
		"core.training_dep_share", "core.updates_per_kdep", "core.mode_switches",
		"core.recoveries", "core.invalid_ratio",
		"deps.deps_per_record", "deps.distinct_window_ratio",
		"core.alloc_bytes_per_dep", "runtime.alloc_kib_per_op", "runtime.gc_cpu_share",
		"rca.root_cause_top1_ratio",
		"workloads.collect_s", "train.train_s",
	}
)

// units maps every metric to its unit.
var units = map[string]string{
	"mrec_per_s": "Mrec/s",
	"op_us_p50":  "us",
	"op_us_p90":  "us",
	"setup_s":    "s",
	"rss_mb":     "MiB",

	"deps.extract_ns_per_record": "ns",
	"core.classify_ns_per_dep":   "ns",
	"nn.forward_ns_per_window":   "ns",
	"core.deploy_us":             "us",
	"core.replay_us":             "us",
	"pipeline.call_us":           "us",
	"core.updates_per_kdep":      "1/kdep",
	"core.mode_switches":         "count",
	"core.recoveries":            "count",
	"deps.deps_per_record":       "1/rec",
	"core.alloc_bytes_per_dep":   "B",
	"runtime.alloc_kib_per_op":   "KiB",
	"workloads.collect_s":        "s",
	"train.train_s":              "s",

	"deps.extract_share":         "ratio",
	"core.classify_share":        "ratio",
	"nn.forward_share":           "ratio",
	"core.deploy_share":          "ratio",
	"core.replay_share":          "ratio",
	"pipeline.call_share":        "ratio",
	"trace.decode_share":         "ratio",
	"deps.correct_set_share":     "ratio",
	"stages.collect_share":       "ratio",
	"ranking.rank_share":         "ratio",
	"rca.analyze_share":          "ratio",
	"layers.unattributed_share":  "ratio",
	"core.training_dep_share":    "ratio",
	"core.invalid_ratio":         "ratio",
	"deps.distinct_window_ratio": "ratio",
	"runtime.gc_cpu_share":       "ratio",
	"rca.root_cause_top1_ratio":  "ratio",
}
