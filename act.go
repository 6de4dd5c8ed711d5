// Package act is the public API of the ACT reproduction: production-run
// software failure diagnosis via adaptive communication tracking, after
// Alam & Muzahid (ISCA 2016).
//
// ACT learns a program's valid sequences of RAW (read-after-write) data
// communications with a small neural network, watches every dependence
// online, logs the suspicious ones, and — after a failure — prunes and
// ranks that log against fresh correct executions to point at the root
// cause, without ever reproducing the failure.
//
// The workflow has four steps:
//
//  1. Collect memory-access traces of correct executions (your
//     instrumentation, or the built-in workloads via cmd/acttrace).
//  2. Train: act.Train picks a network topology and learns the valid
//     dependence sequences — act.Model is what you'd embed in the binary.
//  3. Deploy: act.Deploy attaches a Monitor; feed it every load and
//     store. It classifies each dependence, keeps a Debug Buffer of
//     suspicious sequences, and keeps learning online when its
//     misprediction rate spikes.
//  4. Diagnose: after a failure, act.Diagnose prunes the Debug Buffer
//     against correct-run sequences and ranks the survivors.
//
// The internal packages contain the full substrate the evaluation runs
// on — an ISA and VM, a MESI memory hierarchy, a timing simulator, the
// neural hardware model, benchmark kernels, and sixteen bug workloads;
// see DESIGN.md.
package act

import (
	"fmt"
	"io"
	"sync"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/nn"
	"act/internal/obs"
	"act/internal/ranking"
	"act/internal/trace"
	"act/internal/train"
)

// Re-exported data types. A Record is one retired memory operation; a
// Trace is one execution's ordered records. Dep is one RAW dependence
// (store instruction S observed by load instruction L); a Sequence is
// the N-long dependence window the network classifies.
type (
	Record           = trace.Record
	Trace            = trace.Trace
	Dep              = deps.Dep
	Sequence         = deps.Sequence
	DebugEntry       = core.DebugEntry
	Report           = ranking.Report
	Candidate        = ranking.Candidate
	CorruptionReport = trace.CorruptionReport
)

// ReadTrace reads a binary trace written by Trace.Write (or acttrace).
// Corruption inside a framed trace is recovered silently; use
// ReadTraceReport to see what was lost.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// ReadTraceReport reads a trace and reports any corruption the framed
// reader recovered from: damaged records are skipped, the rest of the
// trace survives, and the report says how much was lost. The report is
// non-nil whenever the trace is.
func ReadTraceReport(r io.Reader) (*Trace, *CorruptionReport, error) {
	return trace.ReadReport(r)
}

// Model is a trained communication-invariant classifier: the network
// topology and weights plus the sequence length it consumes — the
// payload ACT stores in the program binary.
type Model struct {
	res *train.Result
}

// TrainOption adjusts training.
type TrainOption func(*train.Config)

// WithFullSearch searches the paper's full topology space (N 1..5,
// hidden 1..10) instead of the fast default (N 1..3, hidden {4,8,10}).
func WithFullSearch() TrainOption {
	return func(c *train.Config) {
		c.Ns = []int{1, 2, 3, 4, 5}
		c.Hs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
}

// WithGranularity tracks last writers at the given byte granularity
// (8 = per word; a cache-line size models the cheap hardware mode).
func WithGranularity(bytes uint64) TrainOption {
	return func(c *train.Config) { c.Granularity = bytes }
}

// WithSeed fixes the training seed (default 1).
func WithSeed(seed int64) TrainOption {
	return func(c *train.Config) { c.Seed = seed }
}

// WithExclude withholds matching dependences from training, as if the
// code containing them did not exist yet.
func WithExclude(f func(Dep) bool) TrainOption {
	return func(c *train.Config) { c.Exclude = f }
}

// WithNegativeSampling sets how many wrong-writer negatives are
// synthesized per observed sequence (default 1; -1 disables, leaving the
// paper's before-last-store negatives only). Higher values harden the
// only-observed-communication-is-valid boundary — diagnosis-oriented
// deployments use 3 — at some cost in false positives.
func WithNegativeSampling(perSequence int) TrainOption {
	return func(c *train.Config) { c.RandomNegatives = perSequence }
}

// WithoutPrior disables the default-invalid prior (the random invalid
// feature points that make never-observed communication suspect by
// default). Without it, unseen sequences lean toward "valid":
// friendlier to new code, blinder to bugs.
func WithoutPrior() TrainOption {
	return func(c *train.Config) { c.PriorNegatives = -1 }
}

// Train runs offline training: the input generator turns the correct-run
// traces into positive and synthesized negative dependence-sequence
// examples, a topology search scored on the held-out traces picks the
// network, and a thorough final fit trains it.
func Train(trainTraces, testTraces []*Trace, opts ...TrainOption) (*Model, error) {
	cfg := train.Config{Ns: []int{1, 2, 3}, Hs: []int{4, 8, 10}, Seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	res, err := train.Train(trainTraces, testTraces, cfg)
	if err != nil {
		return nil, err
	}
	return &Model{res: res}, nil
}

// Topology returns the chosen network topology as "i-h-1".
func (m *Model) Topology() string { return m.res.Topology() }

// SequenceLength returns N, the dependences per classified sequence.
func (m *Model) SequenceLength() int { return m.res.N }

// FalsePositiveRate returns the held-out misprediction rate on valid
// sequences (dynamic-weighted).
func (m *Model) FalsePositiveRate() float64 { return m.res.Mispred }

// FalseNegativeRate returns the held-out rate of synthesized invalid
// sequences the network accepts.
func (m *Model) FalseNegativeRate() float64 { return m.res.FNRate }

// Save writes the model (sequence length, topology, weights).
func (m *Model) Save(w io.Writer) error {
	blob, err := m.res.Net.MarshalBinary()
	if err != nil {
		return err
	}
	if _, err := w.Write([]byte{byte(m.res.N)}); err != nil {
		return err
	}
	_, err = w.Write(blob)
	return err
}

// LoadModel reads a model written by Save (or acttrain).
func LoadModel(r io.Reader) (*Model, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(blob) < 2 {
		return nil, fmt.Errorf("act: model blob too short")
	}
	n := int(blob[0])
	var net nn.Network
	if err := net.UnmarshalBinary(blob[1:]); err != nil {
		return nil, err
	}
	res := &train.Result{Net: &net, N: n, Encoder: deps.EncodeDefault}
	if want := deps.InputLen(deps.EncodeDefault, n); net.NIn != want {
		return nil, fmt.Errorf("act: model expects %d inputs for N=%d, blob has %d", want, n, net.NIn)
	}
	return &Model{res: res}, nil
}

// Monitor is a deployed set of per-processor ACT Modules: it forms
// dependences from the loads and stores you feed it, classifies their
// sequences, logs predicted-invalid ones, and adapts online.
//
// A Monitor is not safe for concurrent use. In the hardware it models,
// events arrive in coherence order over one channel; a software harness
// feeding it from multiple goroutines must recreate that single total
// order externally — guard every OnLoad/OnStore/Replay/DebugBuffer/
// Stats call with one shared sync.Mutex:
//
//	var mu sync.Mutex
//	// in each goroutine:
//	mu.Lock()
//	mon.OnLoad(tid, pc, addr)
//	mu.Unlock()
//
// Sharding events by thread id onto separate unlocked Monitors is NOT
// equivalent: cross-thread dependences — the ones diagnosis exists to
// watch — form between records of different threads, so all threads'
// events must pass through the same Monitor under the same lock.
type Monitor struct {
	tracker *core.Tracker
	ckpt    core.CheckpointConfig

	ckptStatus CheckpointStatus
	ckptErr    error

	metricsOnce sync.Once
	metrics     *obs.Registry
}

// DeployOption adjusts deployment.
type DeployOption func(*deployCfg)

type deployCfg struct {
	tracker core.TrackerConfig
	ckpt    core.CheckpointConfig
}

// CheckpointStatus reports what the last checkpointed replay did:
// whether it resumed, from which record, and how many checkpoint images
// it wrote.
type CheckpointStatus = core.ReplayStatus

// WithThreshold sets the misprediction rate that flips a module into
// online-training mode (default 0.05, Table III).
//
// The zero value means "use the default", so it cannot express "train at
// any rate". Two sentinels cover the ends of the scale: AlwaysTrain
// locks every module in online-training mode regardless of rate, and
// NeverTrain locks them in testing mode (pure detection, weights
// frozen). Any negative rate behaves as AlwaysTrain; any rate above 1 as
// NeverTrain.
func WithThreshold(rate float64) DeployOption {
	return func(c *deployCfg) { c.tracker.Module.MispredThreshold = rate }
}

// Threshold sentinels for WithThreshold. AlwaysTrain keeps modules
// learning online permanently; NeverTrain freezes the deployed weights.
const (
	AlwaysTrain = core.AlwaysTrain
	NeverTrain  = core.NeverTrain
)

// WithRecoveryWindows sets K, the number of consecutive
// stalled-unhealthy rate windows (misprediction above threshold without
// improving, or pinned outputs) before a module's breaker restores its
// last-known-good weight snapshot (default 4). Pass a negative k to
// disable snapshot/rollback entirely. Recoveries are counted in
// Stats().Recoveries.
func WithRecoveryWindows(k int) DeployOption {
	return func(c *deployCfg) { c.tracker.Module.RecoveryWindows = k }
}

// WithDebugBuffer sets the Debug Buffer capacity (default 60).
func WithDebugBuffer(entries int) DeployOption {
	return func(c *deployCfg) { c.tracker.Module.DebugBufSize = entries }
}

// WithCheckInterval sets how many dependences pass between misprediction
// rate checks — the cadence of testing/training mode decisions (default
// 1000).
func WithCheckInterval(deps int) DeployOption {
	return func(c *deployCfg) { c.tracker.Module.CheckInterval = deps }
}

// WithDeployGranularity sets last-writer granularity for the deployed
// extractor (must match training).
func WithDeployGranularity(bytes uint64) DeployOption {
	return func(c *deployCfg) { c.tracker.Granularity = bytes }
}

// WithQuantized enables fixed-point batched classification: each
// module compiles its live float weights into an int16 Q-format kernel
// (the arithmetic nn.Quantize models for the paper's hardware AM) and
// classifies testing-mode dependences in batches through it, serving
// repeated windows from an internal generation-stamped memo. Verdicts
// are the quantized network's outputs — deliberately the hardware
// answer, not the float network's — and every observable (Debug
// Buffer, Stats, ranked reports) is bit-identical between sequential,
// batched, and parallel replay. The kernel is recompiled whenever the
// weights change generation (online training, recovery, rollback,
// LoadWeights) and falls back to float classification while the weight
// state cannot compile. Off by default.
func WithQuantized() DeployOption {
	return func(c *deployCfg) { c.tracker.Module.Quantized = true }
}

// WithCheckpoint enables checkpoint/resume on Replay and
// ReplayParallel: replay state is snapshotted to path every interval
// trace records (0 means a large default) as an atomic, CRC-framed
// checkpoint file, and a later Replay of the same trace on a fresh,
// identically configured Monitor resumes from the last complete
// snapshot instead of starting over — with the ranked report byte-
// identical to an uninterrupted run. A checkpoint from a different
// trace, seed, or configuration is ignored (the replay starts fresh);
// CheckpointStatus says what happened.
func WithCheckpoint(path string, interval int) DeployOption {
	return func(c *deployCfg) {
		c.ckpt = core.CheckpointConfig{Path: path, Interval: interval, Resume: true}
	}
}

// Deploy attaches a Monitor initialized with the model's weights for
// every thread (the augmented-binary semantics: threads unseen at
// training time would start untrained, in online-training mode).
func Deploy(m *Model, threads int, opts ...DeployOption) *Monitor {
	cfg := deployCfg{}
	cfg.tracker.Module.N = m.res.N
	cfg.tracker.Module.Encoder = m.res.Encoder
	for _, o := range opts {
		o(&cfg)
	}
	binary := core.NewWeightBinary(m.res.Net.NIn, m.res.Net.NHidden)
	binary.PatchAll(threads, m.res.Net.Flatten(nil))
	return &Monitor{tracker: core.NewTracker(binary, cfg.tracker), ckpt: cfg.ckpt}
}

// OnStore records a store: thread tid's instruction at pc wrote addr.
func (mo *Monitor) OnStore(tid int, pc, addr uint64) {
	mo.tracker.OnRecord(Record{Tid: uint16(tid), PC: pc, Addr: addr, Store: true})
}

// OnLoad records a load: thread tid's instruction at pc read addr.
func (mo *Monitor) OnLoad(tid int, pc, addr uint64) {
	mo.tracker.OnRecord(Record{Tid: uint16(tid), PC: pc, Addr: addr})
}

// Replay feeds a whole trace through the monitor sequentially,
// checkpointing and resuming per WithCheckpoint.
func (mo *Monitor) Replay(t *Trace) { mo.replay(t, nil) }

// replay routes both replay flavors through the checkpointed engine
// when WithCheckpoint armed it, recording the status for
// CheckpointStatus.
func (mo *Monitor) replay(t *Trace, par *core.ParallelConfig) {
	if mo.ckpt.Path == "" {
		if par != nil {
			mo.tracker.ReplayParallel(t, *par)
		} else {
			mo.tracker.Replay(t)
		}
		return
	}
	mo.ckptStatus, mo.ckptErr = mo.tracker.ReplayCheckpointed(t, par, mo.ckpt)
}

// CheckpointStatus reports what the last checkpointed replay did and
// any checkpoint I/O error it hit (a snapshot that fails to land stops
// the replay — by then the monitor's state is no longer resumable from
// disk). Zero values before the first replay or without WithCheckpoint.
func (mo *Monitor) CheckpointStatus() (CheckpointStatus, error) {
	return mo.ckptStatus, mo.ckptErr
}

// ReplayParallel feeds a whole trace through the monitor with the
// two-stage pipeline: the calling goroutine resolves last writers over
// the globally ordered trace and fans the dependences out per thread,
// and one worker goroutine per module classifies its thread's stream
// concurrently. The Debug Buffer, Stats, and any weights learned online
// are bit-identical to Replay of the same trace; on multi-core hosts it
// is several times faster for multi-threaded traces. It returns once
// every worker has drained. The concurrency lives entirely inside the
// call: the Monitor-wide locking discipline above is unchanged.
// Checkpointing per WithCheckpoint applies here too — the workers are
// quiesced at every snapshot, so a parallel checkpoint captures the
// same state a sequential one would.
func (mo *Monitor) ReplayParallel(t *Trace) {
	mo.replay(t, &core.ParallelConfig{})
}

// DebugBuffer returns every module's logged suspicious sequences,
// oldest first per processor — the log handed to Diagnose after a
// failure.
func (mo *Monitor) DebugBuffer() []DebugEntry { return mo.tracker.DebugBuffers() }

// Stats summarizes the monitor's activity, including the weight
// breaker's counters: Snapshots taken on healthy windows and Recoveries
// performed after divergence (NaN/Inf outputs, pinned outputs, or a
// persistently stalled misprediction rate).
func (mo *Monitor) Stats() core.Stats { return mo.tracker.Stats() }

// StatsSnapshot is Stats for concurrent callers: every counter is read
// atomically under the tracker's module-list lock, so a metrics scraper
// (or any other goroutine) may call it while ReplayParallel is running.
// It is the one exception to the Monitor-wide locking discipline above.
func (mo *Monitor) StatsSnapshot() core.Stats { return mo.tracker.StatsSnapshot() }

// Metrics returns the monitor's observability registry with the
// act_core_* series registered (deps and sequences processed, verdicts,
// mode switches, breaker activity, weight generations). Mount it with
// obs.Handler or obs.StartServer, or render it directly with
// WritePrometheus. The registry is created on first call; scraping it is
// safe concurrently with ReplayParallel (series backed by
// StatsSnapshot), like StatsSnapshot itself.
func (mo *Monitor) Metrics() *obs.Registry {
	mo.metricsOnce.Do(func() {
		mo.metrics = obs.NewRegistry()
		mo.tracker.RegisterMetrics(mo.metrics)
	})
	return mo.metrics
}

// TeachInvalid feeds a known-buggy dependence sequence back to thread
// tid's module as a negative example — the escape hatch for a failure
// that slipped past the network and was root-caused by other means
// (Section III-C). It reports whether the module now rejects it.
func (mo *Monitor) TeachInvalid(tid int, s Sequence) bool {
	return mo.tracker.Module(tid).TeachInvalid(s)
}

// Diagnose runs offline postprocessing: sequences occurring in the
// correct traces form the Correct Set, matching Debug Buffer entries are
// pruned, and the survivors are ranked — most-matched first, most
// negative network output breaking ties. The failure itself is never
// re-executed.
func Diagnose(debug []DebugEntry, correct []*Trace, sequenceLength int) *Report {
	set := deps.CollectSequences(correct, deps.ExtractorConfig{N: sequenceLength})
	return ranking.Rank(debug, set)
}
