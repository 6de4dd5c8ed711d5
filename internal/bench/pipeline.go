package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/pipeline"
	"act/internal/trace"
	"act/internal/workloads"
)

// Monitoring-pipeline throughput experiment. Unlike the paper-shaped
// tables, this one measures the reproduction itself: how many trace
// records per second the software AM pipeline sustains, sequentially
// versus with parallel sharded replay, in float and with the quantized
// batch kernel. cmd/actbench -exp pipeline prints the rows and, with
// -json, writes them as BENCH_pipeline.json (format in EXPERIMENTS.md)
// so the throughput trajectory is tracked across commits.

// PipelineRow is one measured pipeline configuration.
type PipelineRow struct {
	Config        string  `json:"config"`          // "sequential", "parallel", "+quant"/"+ckpt" variants
	Threads       int     `json:"threads"`         // worker threads in the replayed trace
	Records       int     `json:"records"`         // trace records replayed per pass
	Deps          uint64  `json:"deps"`            // dependences classified per pass
	Passes        int     `json:"passes"`          // timed replay passes
	RecordsPerSec float64 `json:"records_per_sec"` // throughput over all passes
	NsPerDep      float64 `json:"ns_per_dep"`      // wall time per classified dependence
	AllocsPerDep  float64 `json:"allocs_per_dep"`  // heap allocations per dependence (steady state)
	Speedup       float64 `json:"speedup"`         // vs the sequential row of the same run
	GOMAXPROCS    int     `json:"gomaxprocs"`      // parallelism available to the run
}

// PipelineReport is the JSON document actbench -json emits.
type PipelineReport struct {
	Workload string        `json:"workload"`
	Rows     []PipelineRow `json:"rows"`
	// QuantSpeedup is the sequential+quant configuration's records/sec
	// divided by the per-dependence float path's — Tracker.OnRecord on
	// every record, so Module.OnDep encodes and runs the float network
	// on every dependence with no memo. It is the gain from the compiled
	// int16 batch kernel and its window memo, with no parallelism in
	// either term. FloatSpeedup divides the plain sequential
	// configuration (float Replay, the same batch path and memo with the
	// float network on the misses) by the same per-dependence term. Both
	// are measured from back-to-back attempts (best ratio of three
	// rounds, each timing the per-dependence term, quant and float), so
	// machine-speed drift during the run moves every term of a round
	// together instead of skewing the ratios.
	QuantSpeedup float64 `json:"quant_speedup"`
	// QuantFloor and FloatFloor are the minimum speedups the batch path
	// must sustain in each precision; CI greps for QuantOK and FloatOK,
	// so a regression below a floor fails the build rather than
	// silently eroding.
	QuantFloor   float64 `json:"quant_floor"`
	QuantOK      bool    `json:"quant_speedup_ok"`
	FloatSpeedup float64 `json:"float_speedup"`
	FloatFloor   float64 `json:"float_floor"`
	FloatOK      bool    `json:"float_speedup_ok"`
	// Checkpoint overhead at the production cadence. One image costs
	// CkptNsPerImage (encode + atomic fsync'd write, best of several
	// samples); between images the monitor replays CkptInterval records
	// (the core.DefaultCheckpointInterval cadence) at the sequential
	// row's throughput. CkptOverhead is the ratio of the two — the
	// fraction of wall time a checkpointed run spends on images versus a
	// no-checkpoint baseline. The "+ckpt" table rows show the same cost
	// end-to-end at a deliberately absurd cadence (4 images per ~500
	// record pass) to keep the per-image cost visible; the asserted
	// number is the amortized one, because that is what a production run
	// pays. CI greps for CkptOK against the 5% ceiling.
	CkptNsPerImage float64 `json:"ckpt_ns_per_image"`
	CkptBytes      int     `json:"ckpt_bytes"`    // size of one image
	CkptInterval   int     `json:"ckpt_interval"` // records between images
	CkptOverhead   float64 `json:"ckpt_overhead"` // fraction of baseline wall time
	CkptCeil       float64 `json:"ckpt_ceil"`
	CkptOK         bool    `json:"ckpt_overhead_ok"`
}

// pipelineTrace builds the multi-threaded replay input: the 4-thread
// radix kernel, whose inter-thread histogram merges exercise both
// halves of the extractor.
func pipelineTrace(m Mode) (*trace.Trace, int) {
	w, err := workloads.KernelByName("radix")
	if err != nil {
		panic(err) // built-in kernel; unreachable
	}
	tr, _ := trace.Collect(w.Build(1), w.Sched(1))
	passes := 40
	if m == Full {
		passes = 200
	}
	return tr, passes
}

// pipelineMinDur is the wall-time floor for one timed measurement; see
// runPipeline.
func pipelineMinDur(m Mode) time.Duration {
	if m == Full {
		return 150 * time.Millisecond
	}
	return 25 * time.Millisecond
}

// pipelineTracker deploys a converged always-valid binary (N=3, 6-8-1
// by default) so the measurement isolates steady-state classification:
// testing mode throughout, no Debug Buffer churn.
func pipelineTracker(threads int, quant bool) *core.Tracker {
	cfg := core.Config{N: 3, Quantized: quant}
	nIn := deps.InputLen(deps.EncodeDefault, 3)
	binary := core.AlwaysValidBinary(nIn, 8, threads)
	return core.NewTracker(binary, core.TrackerConfig{Module: cfg})
}

// pipelineConfig is one way of replaying the bench trace.
type pipelineConfig struct {
	name     string
	parallel bool
	quant    bool
	// perDep feeds the records through Tracker.OnRecord instead of a
	// replay call: Module.OnDep on every dependence, no batch path and
	// no memo — the float term of the asserted speedups.
	perDep bool
	ck     core.CheckpointConfig
}

// runPipeline replays the trace on a fresh tracker for at least
// minPasses passes AND at least minDur of wall time, returning the row
// for one configuration. The duration floor matters more than the pass
// count: the fastest configurations replay this trace in tens of
// microseconds, and a sub-millisecond timing window turns scheduler
// jitter into 2× swings in the ratios CI asserts on.
func runPipeline(tr *trace.Trace, threads, minPasses int, minDur time.Duration, c pipelineConfig) PipelineRow {
	t := pipelineTracker(threads, c.quant)
	// Warm-up pass: module creation, lazy buffers, map growth.
	t.Replay(tr)

	var par *core.ParallelConfig
	if c.parallel {
		par = &core.ParallelConfig{}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	passes := 0
	for passes < minPasses || time.Since(start) < minDur {
		switch {
		case c.ck.Path != "":
			if _, err := t.ReplayCheckpointed(tr, par, c.ck); err != nil {
				panic(err) // temp-dir write failure; not a measurement
			}
		case c.perDep:
			for _, r := range tr.Records {
				t.OnRecord(r)
			}
		case c.parallel:
			t.ReplayParallel(tr, core.ParallelConfig{})
		default:
			t.Replay(tr)
		}
		passes++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)

	st := t.Stats()
	deps := st.Deps * uint64(passes) / uint64(passes+1) // exclude the warm-up share
	row := PipelineRow{
		Threads:    threads,
		Records:    len(tr.Records),
		Deps:       deps,
		Passes:     passes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		row.RecordsPerSec = float64(len(tr.Records)) * float64(passes) / secs
	}
	if deps > 0 {
		row.NsPerDep = float64(elapsed.Nanoseconds()) / float64(deps)
		row.AllocsPerDep = float64(ms1.Mallocs-ms0.Mallocs) / float64(deps)
	}
	return row
}

// Pipeline measures the six pipeline configurations on the same trace
// in one run: sequential and parallel replay, each in float, with the
// quantized int16 batch kernel, and checkpointing.
// Row speedups are relative to the plain sequential row; the asserted
// sequential+quant and sequential ratios are taken against
// per-dependence float classification (see QuantSpeedup).
func Pipeline(m Mode) (*PipelineReport, error) {
	tr, passes := pipelineTrace(m)
	threads := 4
	ckptDir, err := os.MkdirTemp("", "actbench-ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ckptDir)
	// The "+ckpt" rows checkpoint every records/4 records — four fsync'd
	// images per sub-millisecond pass, a cadence no production run would
	// pick — so the table shows the un-amortized cost of an image.
	rowCk := core.CheckpointConfig{
		Path:     filepath.Join(ckptDir, "bench.ckpt"),
		Interval: max(1, len(tr.Records)/4),
	}
	seqFloat := pipelineConfig{name: "sequential"}
	seqQuant := pipelineConfig{name: "sequential+quant", quant: true}
	configs := []pipelineConfig{
		seqFloat,
		{name: "parallel", parallel: true},
		seqQuant,
		{name: "parallel+quant", parallel: true, quant: true},
		{name: "sequential+ckpt", ck: rowCk},
		{name: "parallel+ckpt", parallel: true, ck: rowCk},
	}
	rep := &PipelineReport{Workload: "radix", QuantFloor: 3.0, FloatFloor: 3.0}
	for _, c := range configs {
		// Best of three runs, like the obs experiment: the asserted
		// ratios are about systematic cost, not scheduler jitter.
		var row PipelineRow
		for i := 0; i < 3; i++ {
			r := runPipeline(tr, threads, passes, pipelineMinDur(m), c)
			if r.RecordsPerSec > row.RecordsPerSec {
				row = r
			}
		}
		row.Config = c.name
		rep.Rows = append(rep.Rows, row)
	}
	base := rep.Rows[0].RecordsPerSec
	for i := range rep.Rows {
		if base > 0 {
			rep.Rows[i].Speedup = rep.Rows[i].RecordsPerSec / base
		}
	}
	// The asserted ratios come from back-to-back attempts, not the table
	// rows: each round times the per-dependence term, then quant, then
	// float, so a slow stretch of the machine slows every term instead
	// of faking a regression.
	perDep := pipelineConfig{name: "per-dependence", perDep: true}
	for i := 0; i < 3; i++ {
		d := runPipeline(tr, threads, passes, pipelineMinDur(m), perDep)
		q := runPipeline(tr, threads, passes, pipelineMinDur(m), seqQuant)
		f := runPipeline(tr, threads, passes, pipelineMinDur(m), seqFloat)
		if d.RecordsPerSec > 0 {
			rep.QuantSpeedup = max(rep.QuantSpeedup, q.RecordsPerSec/d.RecordsPerSec)
			rep.FloatSpeedup = max(rep.FloatSpeedup, f.RecordsPerSec/d.RecordsPerSec)
		}
	}
	rep.QuantOK = rep.QuantSpeedup >= rep.QuantFloor
	rep.FloatOK = rep.FloatSpeedup >= rep.FloatFloor

	if err := measureCkptOverhead(rep, tr, threads); err != nil {
		return nil, err
	}
	return rep, nil
}

// measureCkptOverhead fills the ckpt_* report fields: the best-observed
// cost of producing one complete checkpoint image (EncodeCheckpoint of a
// fully-replayed tracker plus the atomic fsync'd WriteCheckpoint) divided by
// the wall time the sequential baseline spends replaying one default
// checkpoint interval's worth of records. Taking the minimum of several
// image samples mirrors the best-of-three rows: the assertion is about
// systematic cost, not about whatever the machine was doing that moment.
func measureCkptOverhead(rep *PipelineReport, tr *trace.Trace, threads int) error {
	dir, err := os.MkdirTemp("", "actbench-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "amortized.ckpt")

	t := pipelineTracker(threads, false)
	t.Replay(tr)
	best := time.Duration(0)
	bytes := 0
	for i := 0; i < 20; i++ {
		start := time.Now()
		img, err := t.EncodeCheckpoint(tr, len(tr.Records))
		if err != nil {
			return err
		}
		if err := pipeline.WriteCheckpoint(path, img); err != nil {
			return err
		}
		if d := time.Since(start); best == 0 || d < best {
			best = d
		}
		bytes = len(img)
	}
	rep.CkptNsPerImage = float64(best.Nanoseconds())
	rep.CkptBytes = bytes
	rep.CkptInterval = core.DefaultCheckpointInterval
	rep.CkptCeil = 0.05
	if base := rep.Rows[0].RecordsPerSec; base > 0 {
		intervalNS := float64(rep.CkptInterval) / base * 1e9
		rep.CkptOverhead = rep.CkptNsPerImage / intervalNS
	}
	rep.CkptOK = rep.CkptOverhead > 0 && rep.CkptOverhead <= rep.CkptCeil
	return nil
}

// RenderPipeline renders the report as a table.
func RenderPipeline(rep *PipelineReport) string {
	out := make([]string, 0, len(rep.Rows))
	for _, r := range rep.Rows {
		out = append(out, fmt.Sprintf("%s\t%.0f\t%.1f\t%.3f\t%.2fx",
			r.Config, r.RecordsPerSec, r.NsPerDep, r.AllocsPerDep, r.Speedup))
	}
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FAIL"
	}
	return table("Config\tRecords/s\tns/dep\tAllocs/dep\tSpeedup", out) +
		fmt.Sprintf("(workload %s, %d threads, GOMAXPROCS=%d; speedup vs sequential\n"+
			" in the same run; parallel gains require GOMAXPROCS > 1;\n"+
			" +ckpt rows fsync 4 images per pass — see ckpt overhead below\n"+
			" for the production cadence)\n"+
			"quant speedup %.2fx (floor %.1fx: %s), float speedup %.2fx (floor %.1fx: %s)\n"+
			" (vs per-dependence float classification, Tracker.OnRecord)\n"+
			"ckpt overhead %.3f%% (%.0fµs/image, %d B, every %d records; ceil %.0f%%: %s)\n",
			rep.Workload, rep.Rows[0].Threads, rep.Rows[0].GOMAXPROCS,
			rep.QuantSpeedup, rep.QuantFloor, verdict(rep.QuantOK),
			rep.FloatSpeedup, rep.FloatFloor, verdict(rep.FloatOK),
			100*rep.CkptOverhead, rep.CkptNsPerImage/1e3, rep.CkptBytes,
			rep.CkptInterval, 100*rep.CkptCeil, verdict(rep.CkptOK))
}

// MarshalPipeline renders the report as the BENCH_pipeline.json bytes.
func MarshalPipeline(rep *PipelineReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
