package core

import "act/internal/obs"

// Always-on instruments on the process-wide registry. These are new
// signals no existing counter carries (timings, rate distributions);
// everything core already counts in Stats is bridged at scrape time by
// RegisterMetrics instead, so the hot path pays nothing twice.
var (
	// statWindowRate is the distribution of per-window misprediction
	// rates in permille, observed once per completed CheckInterval
	// window — the signal the testing<->training state machine runs on.
	statWindowRate = obs.Default.Histogram("act_core_window_rate_permille",
		"Per-window misprediction rate in permille, one observation per rate check.")

	// statReplays counts whole-trace replays (sequential or parallel).
	statReplays = obs.Default.Counter("act_replay_total",
		"Whole-trace replays completed (sequential and parallel).")

	// statReplayNS times whole replays end to end.
	statReplayNS = obs.Default.Histogram("act_replay_ns",
		"Whole-trace replay duration in nanoseconds.")

	// statReplayBatchNS times one worker's classification of one fanout
	// batch — the unit of parallel-replay work.
	statReplayBatchNS = obs.Default.Histogram("act_replay_batch_ns",
		"Per-worker classification time of one fanout batch in nanoseconds.")
)

// RegisterMetrics exposes the tracker's aggregate state on r as
// act_core_* series. Every series is sampled at scrape time through
// StatsSnapshot, so registering costs the replay hot path nothing and
// scraping is race-free even mid-ReplayParallel. Typically called once
// per deployment on the registry a Monitor or daemon serves.
func (t *Tracker) RegisterMetrics(r *obs.Registry) {
	r.CounterFunc("act_core_deps_total",
		"RAW dependences processed across all modules.",
		func() uint64 { return t.StatsSnapshot().Deps })
	r.CounterFunc("act_core_sequences_total",
		"Full-length dependence sequences classified.",
		func() uint64 { return t.StatsSnapshot().Sequences })
	r.CounterFunc("act_core_predicted_invalid_total",
		"Sequences the network rejected (Debug Buffer inserts).",
		func() uint64 { return t.StatsSnapshot().PredictedInvalid })
	r.CounterFunc("act_core_updates_total",
		"Online backprop weight updates.",
		func() uint64 { return t.StatsSnapshot().Updates })
	r.CounterFunc("act_core_mode_switches_total",
		"Testing<->training mode transitions.",
		func() uint64 { return t.StatsSnapshot().ModeSwitches })
	r.CounterFunc("act_core_training_deps_total",
		"Dependences processed while in training mode.",
		func() uint64 { return t.StatsSnapshot().TrainingDeps })
	r.CounterFunc("act_core_snapshots_total",
		"Weight snapshots taken on healthy windows.",
		func() uint64 { return t.StatsSnapshot().Snapshots })
	r.CounterFunc("act_core_recoveries_total",
		"Breaker rollbacks to the last-known-good snapshot.",
		func() uint64 { return t.StatsSnapshot().Recoveries })
	r.GaugeFunc("act_core_modules",
		"Deployed ACT Modules (one per processor seen).",
		func() float64 { return float64(t.Modules()) })
	r.CounterFunc("act_core_weight_generations_total",
		"Sum of per-module weight-state generations (updates, mode switches, recoveries).",
		func() uint64 { return t.Generations() })
}
