package faults

import (
	"bytes"
	"fmt"
	"strings"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/nn"
	"act/internal/ranking"
	"act/internal/trace"
	"act/internal/train"
	"act/internal/workloads"
)

// Campaign: sweep fault kind × rate across the bug workloads and
// measure what each fault costs in diagnosis capability — the
// robustness counterpart of the overhead benchmarks. Per bug, the clean
// pipeline (offline training, correct set, one production failure) runs
// once; each experimental arm then replays the same failure under
// injected faults and re-ranks the Debug Buffer. Everything is seeded,
// so a campaign is reproducible bit for bit.

// Kind enumerates the injectable fault classes. Annotated
// //act:exhaustive: the arm dispatcher (and any other switch over a
// Kind) must handle every class, so adding a tenth fault cannot
// silently produce arms that inject nothing.
//
//act:exhaustive
type Kind int

const (
	// TraceBits flips bits in the serialized failing trace before
	// ingest; the framed reader recovers what it can.
	TraceBits Kind = iota
	// TraceTruncate cuts the serialized trace short, as a crash during
	// collection would.
	TraceTruncate
	// RecordDrop removes records from the stream.
	RecordDrop
	// RecordDup duplicates records in place.
	RecordDup
	// RecordReorder swaps adjacent records.
	RecordReorder
	// DepDrop removes loads: dependences the tracker never observes.
	DepDrop
	// DepStale removes stores: the granule's last-writer metadata goes
	// stale, as after an SRAM-table eviction.
	DepStale
	// FalseShare aliases addresses to their cache line, colliding
	// unrelated words in last-writer tracking.
	FalseShare
	// WeightSEU flips one random weight bit in the record's module with
	// the given per-record probability.
	WeightSEU
)

var kindNames = map[Kind]string{
	TraceBits:     "trace-bits",
	TraceTruncate: "trace-trunc",
	RecordDrop:    "rec-drop",
	RecordDup:     "rec-dup",
	RecordReorder: "rec-reorder",
	DepDrop:       "dep-drop",
	DepStale:      "dep-stale",
	FalseShare:    "false-share",
	WeightSEU:     "weight-seu",
}

// String names the kind as the campaign tables print it.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// AllKinds lists every fault class in table order.
func AllKinds() []Kind {
	return []Kind{TraceBits, TraceTruncate, RecordDrop, RecordDup,
		RecordReorder, DepDrop, DepStale, FalseShare, WeightSEU}
}

// ParseKinds resolves a comma-separated kind list ("all" for all).
func ParseKinds(s string) ([]Kind, error) {
	if s == "" || s == "all" {
		return AllKinds(), nil
	}
	var out []Kind
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for k, n := range kindNames {
			if n == name {
				out = append(out, k)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("faults: unknown kind %q", name)
		}
	}
	return out, nil
}

// CampaignConfig parameterizes a sweep. Rates are per-record fault
// probabilities (for TraceBits the equivalent per-byte rate is derived;
// for TraceTruncate the rate is the maximum fraction cut).
type CampaignConfig struct {
	Bugs  []string  // bug workload names; default {"apache"}
	Kinds []Kind    // default AllKinds()
	Rates []float64 // default {0.001, 0.01, 0.05}
	Seed  int64     // master seed; default 1

	TrainRuns, TestRuns, CorrectSetRuns int          // default 8/3/10
	Train                               train.Config // offline-training overrides
	FailSeedBase                        int64        // default 100_000
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Bugs) == 0 {
		c.Bugs = []string{"apache"}
	}
	if len(c.Kinds) == 0 {
		c.Kinds = AllKinds()
	}
	if len(c.Rates) == 0 {
		c.Rates = []float64{0.001, 0.01, 0.05}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TrainRuns == 0 {
		c.TrainRuns = 8
	}
	if c.TestRuns == 0 {
		c.TestRuns = 3
	}
	if c.CorrectSetRuns == 0 {
		c.CorrectSetRuns = 10
	}
	if len(c.Train.Ns) == 0 {
		c.Train = train.Config{
			Ns:              []int{2, 3},
			Hs:              []int{6, 10},
			RandomNegatives: 3,
			Seed:            1,
			SearchFit:       nn.FitConfig{MaxEpochs: 400, Seed: 1},
			FinalFit:        nn.FitConfig{MaxEpochs: 6000, Seed: 1, Patience: 800},
		}
	}
	if c.FailSeedBase == 0 {
		c.FailSeedBase = 100_000
	}
	return c
}

// Row is one experimental arm: a bug under one fault kind at one rate.
// Rate 0 with kind -1 is the bug's clean baseline.
type Row struct {
	Bug      string
	Kind     Kind
	Rate     float64
	Detected bool // root cause ranked at all
	Rank     int  // 0 = missed
	DebugLen int  // Debug Buffer entries at failure
	Survived int  // candidates after pruning

	// Ingest-level damage (trace faults only).
	RecordsIn int // records that reached the tracker
	Lost      int // records the recovering reader could not save

	// Module-level effects (weight faults and recovery).
	Flips      int    // SEUs injected
	Recoveries uint64 // snapshot rollbacks across all modules
}

// Result is a full campaign: per-bug baselines plus one row per arm.
type Result struct {
	Baselines []Row
	Rows      []Row
}

// RunCampaign executes the sweep. It is deterministic for a fixed
// config: the rng for each arm is derived from (seed, bug, kind, rate)
// indices, never from global state.
func RunCampaign(cfg CampaignConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	res := &Result{}
	for bi, name := range cfg.Bugs {
		b, err := workloads.BugByName(name)
		if err != nil {
			return nil, err
		}
		pipe, err := BuildPipeline(b, cfg)
		if err != nil {
			return nil, fmt.Errorf("faults: %s: %w", name, err)
		}

		base := pipe.run(b, nil, nil)
		base.Bug, base.Kind, base.Rate = name, -1, 0
		res.Baselines = append(res.Baselines, base)

		for ki, kind := range cfg.Kinds {
			for ri, rate := range cfg.Rates {
				armSeed := cfg.Seed + int64(bi)*1_000_000 + int64(ki)*10_000 + int64(ri)*100
				row := pipe.arm(b, kind, rate, armSeed)
				row.Bug, row.Kind, row.Rate = name, kind, rate
				res.Rows = append(res.Rows, row)
			}
		}
	}
	return res, nil
}

// Pipeline holds the per-bug clean diagnosis artifacts every campaign
// arm shares: the offline-trained network, the Correct Set, and one
// production failure. The RCA calibration harness (internal/rca)
// reuses it as the labeled replay it scores verdicts against — the
// bug's class and root-cause site are known ground truth.
type Pipeline struct {
	Trained    *train.Result
	CorrectSet *deps.SeqSet
	// CorrectSetRuns is how many correct executions built CorrectSet —
	// the evidence base behind every pruning decision.
	CorrectSetRuns int
	Fail           workloads.Run
}

// BuildPipeline trains on correct executions of the bug, collects the
// Correct Set, and finds one production failure (never reproduced).
func BuildPipeline(b workloads.Bug, cfg CampaignConfig) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	correct, err := workloads.CollectOutcome(b, false, cfg.TrainRuns+cfg.TestRuns, 0)
	if err != nil {
		return nil, fmt.Errorf("collecting training runs: %w", err)
	}
	tracesOf := func(runs []workloads.Run) []*trace.Trace {
		out := make([]*trace.Trace, len(runs))
		for i, r := range runs {
			out[i] = r.Trace
		}
		return out
	}
	tr, err := train.Train(tracesOf(correct[:cfg.TrainRuns]), tracesOf(correct[cfg.TrainRuns:]), cfg.Train)
	if err != nil {
		return nil, fmt.Errorf("offline training: %w", err)
	}
	pruneRuns, err := workloads.CollectOutcome(b, false, cfg.CorrectSetRuns, 50_000)
	if err != nil {
		return nil, fmt.Errorf("collecting correct-set runs: %w", err)
	}
	fails, err := workloads.CollectOutcome(b, true, 1, cfg.FailSeedBase)
	if err != nil {
		return nil, fmt.Errorf("no failing execution: %w", err)
	}
	return &Pipeline{
		Trained:        tr,
		CorrectSet:     deps.CollectSequences(tracesOf(pruneRuns), deps.ExtractorConfig{N: tr.N}),
		CorrectSetRuns: cfg.CorrectSetRuns,
		Fail:           fails[0],
	}, nil
}

// arm prepares the faulted replay for one (kind, rate) cell and runs it.
func (p *Pipeline) arm(b workloads.Bug, kind Kind, rate float64, seed int64) Row {
	in := New(seed)
	failTrace := p.Fail.Trace
	var row Row
	var seu func(r trace.Record, m *core.Module)

	switch kind {
	case TraceBits:
		t, rep, err := in.CorruptStream(failTrace, rate/frameBytes)
		if err != nil {
			// Unrecoverable ingest (magic destroyed): nothing reaches
			// the tracker; diagnosis trivially fails.
			return Row{DebugLen: 0}
		}
		failTrace, row.Lost = t, rep.Lost
	case TraceTruncate:
		failTrace, row.Lost = in.truncateStream(failTrace, rate)
	case RecordDrop:
		failTrace, row.Lost = in.DropRecords(failTrace, rate)
	case RecordDup:
		failTrace, _ = in.DuplicateRecords(failTrace, rate)
	case RecordReorder:
		failTrace, _ = in.SwapRecords(failTrace, rate)
	case DepDrop:
		failTrace, row.Lost = in.DropLoads(failTrace, rate)
	case DepStale:
		failTrace, row.Lost = in.DropStores(failTrace, rate)
	case FalseShare:
		failTrace, _ = in.AliasToLine(failTrace, rate, 64)
	case WeightSEU:
		seu = func(r trace.Record, m *core.Module) {
			if in.rng.Float64() < rate {
				in.FlipWeightBit(m.Network())
				m.InvalidateVerdicts()
				row.Flips++
			}
		}
	}

	got := p.run(b, failTrace, seu)
	got.Lost, got.Flips = row.Lost, row.Flips
	return got
}

// truncateStream round-trips the trace through serialization with a cut
// tail, returning the partial trace and records lost.
func (in *Injector) truncateStream(t *trace.Trace, rate float64) (*trace.Trace, int) {
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return &trace.Trace{Program: t.Program, Seed: t.Seed}, len(t.Records)
	}
	data, _ := in.Truncate(buf.Bytes(), 1-rate)
	got, rep, err := trace.ReadReport(bytes.NewReader(data))
	if err != nil {
		// The cut landed inside the header: nothing survives ingest.
		return &trace.Trace{Program: t.Program, Seed: t.Seed}, len(t.Records)
	}
	return got, rep.Lost
}

// Deploy replays failTrace (nil = the clean failing trace) through a
// fresh deployment of the trained weights, applying the per-record
// module fault if set, and returns the resulting Debug Buffer plus the
// deployment's stats.
func (p *Pipeline) Deploy(failTrace *trace.Trace, seu func(trace.Record, *core.Module)) ([]core.DebugEntry, core.Stats) {
	if failTrace == nil {
		failTrace = p.Fail.Trace
	}
	tr := p.Trained
	binary := core.NewWeightBinary(tr.Net.NIn, tr.Net.NHidden)
	binary.PatchAll(p.Fail.Program.NumThreads(), tr.Net.Flatten(nil))
	// The bug traces run a few hundred records, two orders of magnitude
	// below the hardware-default 1000-dependence rate window — at that
	// cadence no window would ever complete and the weight breaker would
	// be blind. Scale the window down and make the breaker hair-trigger
	// (one stalled window) so saturated or stalled modules can recover
	// within the handful of windows a campaign replay affords.
	tracker := core.NewTracker(binary, core.TrackerConfig{
		Module: core.Config{N: tr.N, Encoder: tr.Encoder,
			CheckInterval: 15, RecoveryWindows: 1},
	})
	for _, r := range failTrace.Records {
		if seu != nil {
			seu(r, tracker.Module(int(r.Tid)))
		}
		tracker.OnRecord(r)
	}
	return tracker.DebugBuffers(), tracker.Stats()
}

// Rank prunes and ranks a deployed Debug Buffer against the pipeline's
// Correct Set.
func (p *Pipeline) Rank(debug []core.DebugEntry) *ranking.Report {
	return ranking.Rank(debug, p.CorrectSet)
}

// run deploys the trained model and replays failTrace (nil = the clean
// failing trace), applying the per-record module fault if set, then
// prunes and ranks the Debug Buffer.
func (p *Pipeline) run(b workloads.Bug, failTrace *trace.Trace, seu func(trace.Record, *core.Module)) Row {
	if failTrace == nil {
		failTrace = p.Fail.Trace
	}
	debug, stats := p.Deploy(failTrace, seu)
	rep := p.Rank(debug)
	rank := rep.RankOf(b.Matcher(p.Fail.Program))
	return Row{
		Detected:   rank > 0,
		Rank:       rank,
		DebugLen:   len(debug),
		Survived:   len(rep.Ranked),
		RecordsIn:  len(failTrace.Records),
		Recoveries: stats.Recoveries,
	}
}

// frameBytes converts a per-record fault rate into the per-byte rate
// that damages the same fraction of framed records.
const frameBytes = 33

// Render formats the campaign as a fixed-width table with per-bug
// baselines on top.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-12s %7s | %8s %5s %5s %6s | %6s %5s %5s\n",
		"bug", "fault", "rate", "detected", "rank", "dbuf", "cands", "lost", "flips", "recov")
	line := strings.Repeat("-", 92)
	sb.WriteString(line + "\n")
	for _, b := range r.Baselines {
		fmt.Fprintf(&sb, "%-10s %-12s %7s | %8v %5d %5d %6d | %6s %5s %5s\n",
			b.Bug, "(baseline)", "-", b.Detected, b.Rank, b.DebugLen, b.Survived, "-", "-", "-")
	}
	sb.WriteString(line + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %-12s %7.4f | %8v %5d %5d %6d | %6d %5d %5d\n",
			row.Bug, row.Kind, row.Rate, row.Detected, row.Rank, row.DebugLen,
			row.Survived, row.Lost, row.Flips, row.Recoveries)
	}
	return sb.String()
}

// DetectionRate returns the fraction of arms that still ranked the root
// cause, the campaign's headline number.
func (r *Result) DetectionRate() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	n := 0
	for _, row := range r.Rows {
		if row.Detected {
			n++
		}
	}
	return float64(n) / float64(len(r.Rows))
}
