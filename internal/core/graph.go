// Checkpointed replay on the pipeline stage graph.
//
// ReplayCheckpointed is the one replay engine; Replay and
// ReplayParallel (tracker.go, parallel.go) are thin wrappers over it.
// The trace drives an "extract" node inline on the caller's goroutine —
// last-writer resolution cannot be parallelized, and inline placement
// keeps sequential replay free of scheduling overhead and, warm, of
// allocation — while parallel mode builds a graph and adds per-module
// "classify" workers fed over the deps.Fanout.
//
// At checkpoint boundaries the engine quiesces classification (staged
// buffers flushed sequentially; Flush + Barrier + Wait in parallel
// mode), exports the tracker, and writes an ACTK image atomically. A
// killed run resumes from the last complete image and replays the
// remaining records; because a checkpoint captures every diagnosis
// observable and batching boundaries are invisible to modules, the
// resumed run's ranked report and RCA output are byte-identical to an
// uninterrupted run's.
package core

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"act/internal/deps"
	"act/internal/obs"
	"act/internal/pipeline"
	"act/internal/trace"
)

// DefaultCheckpointInterval is the record spacing between checkpoints
// when CheckpointConfig.Interval is zero. Sized so short test traces
// never checkpoint unless asked to.
const DefaultCheckpointInterval = 1 << 20

// ErrReplayAborted is returned when CheckpointConfig.AbortAfter stops a
// replay — the test hook that simulates a kill at a checkpoint
// boundary. The checkpoint file on disk is complete; a resumed replay
// finishes the trace.
var ErrReplayAborted = errors.New("core: replay aborted after checkpoint (test hook)")

// CheckpointConfig enables checkpoint/resume on a replay. The zero
// value disables it entirely.
type CheckpointConfig struct {
	// Path of the checkpoint file. Empty disables checkpointing.
	Path string
	// Interval is the minimum number of trace records between
	// checkpoints; 0 means DefaultCheckpointInterval.
	Interval int
	// Resume loads Path before replaying, when it holds a complete
	// checkpoint matching this tracker's trace, seed, and configuration.
	// A missing, corrupt, or mismatched file falls back to a fresh
	// replay (ReplayStatus.Reason says why) — a stale checkpoint must
	// never wedge a diagnosis run.
	Resume bool
	// AbortAfter > 0 aborts the replay with ErrReplayAborted immediately
	// after the Nth checkpoint write — the kill-and-resume test hook.
	AbortAfter int
}

func (c CheckpointConfig) withDefaults() CheckpointConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultCheckpointInterval
	}
	return c
}

// ReplayStatus reports what a checkpointed replay did.
type ReplayStatus struct {
	Resumed     bool   // state was restored from the checkpoint file
	ResumedFrom int    // record cursor the restored state was taken at
	Checkpoints int    // checkpoint images written by this call
	Reason      string // why a requested resume fell back to a fresh replay
	// Extra holds the stage-owned sections (kind >= 64) of the resumed
	// checkpoint — ranked report, RCA verdicts — verbatim. The stage
	// layer decodes them to skip work already completed before the kill.
	Extra []pipeline.Section
}

// ckptRun tracks one replay's checkpoint schedule.
type ckptRun struct {
	cfg  CheckpointConfig
	last int // cursor of the last checkpoint (or the resume point)
	n    int // images written
}

// due reports whether a checkpoint should be taken at cursor. The final
// cursor is excluded — completion writes its own image. It runs once
// per record, so it must stay alloc-free.
//
//act:noalloc
func (r *ckptRun) due(cursor, total int) bool {
	return r.cfg.Path != "" && cursor < total && cursor-r.last >= r.cfg.Interval
}

// write exports the (quiescent) tracker and lands an ACTK image
// atomically, then fires the abort hook when armed.
func (r *ckptRun) write(t *Tracker, tr *trace.Trace, cursor int) error {
	img, err := t.EncodeCheckpoint(tr, cursor)
	if err != nil {
		return err
	}
	if err := pipeline.WriteCheckpoint(r.cfg.Path, img); err != nil {
		return err
	}
	r.n++
	r.last = cursor
	if r.cfg.AbortAfter > 0 && r.n >= r.cfg.AbortAfter {
		return ErrReplayAborted
	}
	return nil
}

// tryResume attempts to restore the tracker from path. It is lenient by
// design: any failure — no file, torn image, different trace or
// configuration, non-fresh tracker — yields a fresh start with the
// reason recorded, never an error.
func (t *Tracker) tryResume(path string, tr *trace.Trace) (cursor int, extra []pipeline.Section, resumed bool, reason string) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil, false, "" // cold start, nothing to say
		}
		return 0, nil, false, err.Error()
	}
	cursor, extra, err = t.RestoreCheckpoint(data, tr)
	if err != nil {
		return 0, nil, false, err.Error()
	}
	return cursor, extra, true, ""
}

// ReplayCheckpointed feeds tr through the tracker on the pipeline
// graph, sequentially when par is nil and with per-module classify
// workers otherwise, checkpointing per ck. It must not run concurrently
// with other methods of the same Tracker. Resume requires a fresh
// tracker (no modules yet) — the state in the file replaces nothing.
//
// On success with a checkpoint path configured, a final image at the
// end of the trace is written, so a rerun over the same trace resumes
// straight to completion.
func (t *Tracker) ReplayCheckpointed(tr *trace.Trace, par *ParallelConfig, ck CheckpointConfig) (ReplayStatus, error) {
	sp := obs.StartSpan(statReplayNS)
	defer func() {
		sp.End()
		statReplays.Inc()
	}()

	var st ReplayStatus
	start := 0
	if ck.Resume && ck.Path != "" {
		cursor, extra, resumed, reason := t.tryResume(ck.Path, tr)
		st.Reason = reason
		if resumed {
			st.Resumed, st.ResumedFrom, start = true, cursor, cursor
			st.Extra = extra
			pipeline.ResumeMark()
		}
	}

	run := ckptRun{cfg: ck.withDefaults(), last: start}
	var err error
	if par != nil {
		err = t.replayPar(tr, start, *par, &run)
	} else {
		err = t.replaySeq(tr, start, &run)
	}
	if err == nil && run.cfg.Path != "" && !(st.Resumed && start == len(tr.Records)) {
		err = run.write(t, tr, len(tr.Records))
	}
	st.Checkpoints = run.n
	return st, err
}

// replaySeq is the sequential driver: the extract node runs inline,
// with no graph (there are no workers to supervise), and classification
// happens through the per-module staging buffers, same as the
// historical Replay loop. A warm call allocates nothing. Checkpoint
// boundaries flush the staging buffers first — batch boundaries are
// invisible to modules, so the flush changes no observable.
func (t *Tracker) replaySeq(tr *trace.Trace, start int, run *ckptRun) error {
	return pipeline.Stage("extract").Run("replay", func() error {
		prev := t.ext.OnDep
		t.ext.OnDep = t.stageFn
		defer func() { t.ext.OnDep = prev }()
		recs := tr.Records
		for i := start; i < len(recs); i++ {
			t.OnRecord(recs[i])
			if cursor := i + 1; run.due(cursor, len(recs)) {
				t.flushStaged()
				if err := run.write(t, tr, cursor); err != nil {
					return err
				}
			}
		}
		t.flushStaged()
		return nil
	})
}

// replayPar is the parallel driver: extract inline, one classify worker
// per module over the fan-out. Checkpoint boundaries quiesce the
// workers (Flush + Barrier + Wait) so the export reads settled module
// state; the streams stay up and the workers resume as soon as the
// producer pushes again. On any driver error the fan-out is still
// closed and the workers joined before returning — no goroutine
// outlives the call. The batch buffers go back to the tracker's pool for
// the next call.
func (t *Tracker) replayPar(tr *trace.Trace, start int, cfg ParallelConfig, run *ckptRun) error {
	g := pipeline.New("replay")
	cls := pipeline.Stage("classify")
	fo := deps.NewFanout(deps.FanoutConfig{Batch: cfg.Batch, Depth: cfg.Depth, Pool: &t.fanPool},
		func(tid uint16, s *deps.FanStream) {
			// Runs in the extract stage on a thread's first dependence, so
			// module creation order — and therefore default-weight seeding —
			// matches sequential replay exactly.
			m := t.moduleAt(int(tid))
			g.Go(cls, func() error {
				for {
					batch, ok := s.Next()
					if !ok {
						return nil
					}
					bsp := obs.StartSpan(statReplayBatchNS)
					m.OnDeps(batch)
					bsp.End()
				}
			})
		})
	ext := pipeline.Stage("extract")
	err := g.Run(ext, func() error {
		prev := t.ext.OnDep
		t.ext.OnDep = fo.Push
		defer func() { t.ext.OnDep = prev }()
		recs := tr.Records
		for i := start; i < len(recs); i++ {
			t.OnRecord(recs[i])
			if cursor := i + 1; run.due(cursor, len(recs)) {
				fo.Flush()
				bsp := pipeline.BarrierSpan()
				var bwg sync.WaitGroup
				fo.Barrier(&bwg)
				bwg.Wait()
				bsp.End()
				if err := run.write(t, tr, cursor); err != nil {
					return err
				}
			}
		}
		return nil
	})
	fo.Close()
	if werr := g.Wait(); err == nil {
		err = werr
	}
	fo.Recycle()
	return err
}

// mustReplay runs a checkpoint-free replay for the legacy wrappers; an
// error is impossible without a checkpoint path, so any is a bug.
func (t *Tracker) mustReplay(tr *trace.Trace, par *ParallelConfig) {
	if _, err := t.ReplayCheckpointed(tr, par, CheckpointConfig{}); err != nil {
		panic(fmt.Sprintf("core: checkpoint-free replay failed: %v", err))
	}
}
