// Package stages runs the offline diagnosis DAG for one production
// failure on the pipeline graph engine: checkpointed replay of the
// failing trace (internal/core), Debug Buffer collection, pruning and
// ranking against the Correct Set (internal/ranking), and root-cause
// analysis (internal/rca), each a named node with act_pipeline_*
// latency series.
//
// The stage layer owns the checkpoint section kinds >= 64. After RCA
// completes it rewrites the checkpoint with the ranked report and the
// RCA verdict file embedded, so a diagnosis killed after the expensive
// replay — or even after ranking — resumes past the finished stages:
//
//	no checkpoint          → full replay, rank, RCA
//	mid-trace checkpoint   → resume replay at the cursor, rank, RCA
//	completed replay image → skip replay, rank, RCA
//	image with stage state → decode report + verdicts, done
//
// Both stage sections are written together and only served together:
// the ranking wire form deliberately drops output trajectories
// (provenance, not identity), so re-deriving RCA from a decoded report
// would lose evidence — the stored verdict file is the original
// computation's bytes, byte-identical by construction.
package stages

import (
	"bytes"
	"fmt"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/pipeline"
	"act/internal/ranking"
	"act/internal/rca"
	"act/internal/trace"
)

// Stage-owned checkpoint section kinds (64..254; 1..63 belong to core).
const (
	// SectionRankedReport holds a ranking report body
	// (ranking.AppendReport form).
	SectionRankedReport byte = 64
	// SectionRCA holds a complete RCA verdict file (ACTV form).
	SectionRCA byte = 65
)

// Config parameterizes one diagnosis DAG execution.
type Config struct {
	// Parallel enables per-module classification workers during replay;
	// nil replays sequentially. Either way the observables are
	// identical.
	Parallel *core.ParallelConfig
	// Checkpoint configures replay checkpointing and resume; the zero
	// value disables both.
	Checkpoint core.CheckpointConfig
	// Strategy orders the ranked candidates (default ranking.MostMatched).
	Strategy ranking.Strategy
	// Provenance annotates the RCA verdicts (program marks, bug name,
	// correct-run count). Provenance.Debug is filled in by Run.
	Provenance rca.Provenance
}

// Result is one diagnosis DAG execution's output.
type Result struct {
	Debug  []core.DebugEntry // the failure's combined Debug Buffer
	Report *ranking.Report
	RCA    *rca.Report
	Replay core.ReplayStatus
	// StageResumed reports that ranking and RCA were served from the
	// checkpoint's stage sections rather than recomputed.
	StageResumed bool
}

// Run executes the DAG on a fresh tracker. With checkpointing enabled
// the result is byte-identical — report and verdict files included —
// whether the run completes in one call or is killed and resumed any
// number of times.
func Run(t *core.Tracker, tr *trace.Trace, correct *deps.SeqSet, cfg Config) (*Result, error) {
	res := &Result{}
	var err error
	res.Replay, err = t.ReplayCheckpointed(tr, cfg.Parallel, cfg.Checkpoint)
	if err != nil {
		return nil, err
	}

	g := pipeline.New("diagnose")
	collect, rank, analyze := pipeline.Stage("collect"), pipeline.Stage("rank"), pipeline.Stage("rca")

	if err := g.Run(collect, func() error {
		res.Debug = t.DebugBuffers()
		return nil
	}); err != nil {
		return nil, err
	}

	if rep, verdicts, ok := decodeStageSections(res.Replay.Extra); ok {
		res.Report, res.RCA, res.StageResumed = rep, verdicts, true
		return res, nil
	}

	if err := g.Run(rank, func() error {
		res.Report = ranking.RankWith(res.Debug, correct, cfg.Strategy)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := g.Run(analyze, func() error {
		prov := cfg.Provenance
		prov.Debug = res.Debug
		res.RCA = rca.Analyze(res.Report, prov)
		return nil
	}); err != nil {
		return nil, err
	}

	if cfg.Checkpoint.Path != "" {
		if err := persistStageState(t, tr, cfg.Checkpoint.Path, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// decodeStageSections serves ranking and RCA from a resumed
// checkpoint's stage sections. Lenient like replay resume: anything
// short of both sections decoding cleanly means recompute.
func decodeStageSections(extra []pipeline.Section) (*ranking.Report, *rca.Report, bool) {
	var rep *ranking.Report
	var verdicts *rca.Report
	for _, s := range extra {
		switch s.Kind {
		case SectionRankedReport:
			r, _, err := ranking.DecodeReport(s.Data)
			if err != nil {
				return nil, nil, false
			}
			rep = r
		case SectionRCA:
			v, err := rca.Load(bytes.NewReader(s.Data))
			if err != nil {
				return nil, nil, false
			}
			verdicts = v
		}
	}
	return rep, verdicts, rep != nil && verdicts != nil
}

// persistStageState rewrites the checkpoint at path with the stage
// results embedded, atomically replacing the replay-only completion
// image ReplayCheckpointed left behind.
func persistStageState(t *core.Tracker, tr *trace.Trace, path string, res *Result) error {
	var vbuf bytes.Buffer
	if err := res.RCA.Save(&vbuf); err != nil {
		return fmt.Errorf("stages: encoding verdicts: %w", err)
	}
	img, err := t.EncodeCheckpoint(tr, len(tr.Records),
		pipeline.Section{Kind: SectionRankedReport, Data: res.Report.AppendReport(nil)},
		pipeline.Section{Kind: SectionRCA, Data: vbuf.Bytes()},
	)
	if err != nil {
		return err
	}
	return pipeline.WriteCheckpoint(path, img)
}
