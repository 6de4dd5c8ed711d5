package pipeline

import "act/internal/obs"

// Package-level instruments on the process-wide registry, following the
// act_fanout_* precedent: always-on, registered at init, zero cost when
// nobody scrapes. Per-stage latency histograms are registered lazily by
// Stage under act_pipeline_<stage>_ns, once per stage name.
var (
	statNodes = obs.Default.Counter("act_pipeline_nodes_total",
		"pipeline stage nodes registered, one per stage name")
	statQueueDepth = obs.Default.Gauge("act_pipeline_queue_depth",
		"items buffered across all pipeline edges")
	statCkptWrites = obs.Default.Counter("act_pipeline_checkpoints_total",
		"checkpoint files written")
	statCkptBytes = obs.Default.Counter("act_pipeline_checkpoint_bytes_total",
		"checkpoint bytes written")
	statResumes = obs.Default.Counter("act_pipeline_resumes_total",
		"replays resumed from a checkpoint")
	statBarrierNS = obs.Default.Histogram("act_pipeline_barrier_ns",
		"time to quiesce the classification workers at a checkpoint boundary")
)

// ResumeMark counts one successful resume-from-checkpoint
// (act_pipeline_resumes_total); core calls it when a replay actually
// restores state rather than starting fresh.
func ResumeMark() { statResumes.Inc() }

// BarrierSpan measures one worker-quiescence window
// (act_pipeline_barrier_ns) around a parallel checkpoint.
func BarrierSpan() obs.Span { return obs.StartSpan(statBarrierNS) }
