// Package core implements the ACT Module (AM) of Section III: the
// per-processor unit that tests every RAW dependence sequence online
// against a neural network, logs predicted-invalid sequences to a Debug
// Buffer, tracks its misprediction rate with the Invalid Counter, and
// alternates between online testing and online training modes so the
// classifier adapts to code, input, and platform changes in the field.
//
//act:goleak
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"act/internal/deps"
	"act/internal/nn"
)

// Mode is the AM's operating mode.
type Mode int

// Operating modes (the paper's Mode flag).
const (
	Testing  Mode = iota // classify sequences, log predicted-invalid ones
	Training             // additionally learn: treat every sequence as valid
)

// String names the mode.
func (m Mode) String() string {
	if m == Testing {
		return "testing"
	}
	return "training"
}

// DefaultMispredThreshold is the Table III mode-switch threshold applied
// when Config.MispredThreshold is zero. The divergence breaker also
// falls back to it when the configured threshold is a sentinel.
const DefaultMispredThreshold = 0.05

// Sentinel values for Config.MispredThreshold. The zero value means
// "use the default", so an explicit request must be out of the [0, 1]
// range a misprediction rate can take.
const (
	// AlwaysTrain (any negative threshold) keeps the module in online
	// training permanently: no rate is ever low enough to switch back
	// to testing.
	AlwaysTrain float64 = -1
	// NeverTrain (any threshold above 1) pins the module in testing
	// mode: no misprediction rate can exceed it.
	NeverTrain float64 = 2
)

// Config parameterizes an ACT Module. The defaults mirror Table III.
type Config struct {
	N             int     // dependences per sequence (network input group)
	IGBSize       int     // Input Generator Buffer entries; default 5
	DebugBufSize  int     // Debug Buffer entries; default 60
	CheckInterval int     // dependences between rate checks; default 1000
	LearningRate  float64 // online backprop rate; default 0.2
	// MispredThreshold is the mode-switch threshold; 0 means the default
	// 0.05. The zero value cannot express "always train", so the
	// sentinels exist: any negative value (AlwaysTrain) locks the module
	// in training mode, any value above 1 (NeverTrain) locks it in
	// testing mode.
	MispredThreshold float64
	// RecoveryWindows is K, the number of consecutive stalled-unhealthy
	// windows (misprediction rate above threshold without improving, or
	// fully saturated outputs) before the breaker restores the
	// last-known-good weight snapshot. Windows in which the rate is
	// still falling do not count: a module legitimately retraining on
	// changed code makes progress, corrupted weights stall. 0 means the
	// default 4; a negative value disables the breaker.
	RecoveryWindows int
	// SaturationEps bounds the "pinned output" detector: a window whose
	// every output is within eps of 0 or 1 counts as unhealthy even when
	// its misprediction rate looks fine, since saturated-valid outputs
	// are what corrupted large-magnitude weights produce. 0 means the
	// default 1e-6.
	SaturationEps float64
	Encoder       deps.Encoder // feature encoding; default deps.EncodeDefault
	LUT           *nn.SigmoidLUT
	// Quantized enables fixed-point inference: testing-mode
	// classifications run through an nn.QNetwork compiled from the live
	// weights — int16 registers, int32 accumulation, the LUT as the only
	// nonlinearity — recompiled lazily whenever the weight generation
	// moves (training step, recovery, rollback, LoadWeights) and falling
	// back to float inference when compilation is impossible (non-finite
	// weights). It changes only the network the batch path (OnDeps, the
	// fanout workers, staged Replay) runs on the windows its memo
	// misses, one kernel call per chunk; the memo serves both
	// precisions. Training always runs in float: backpropagation needs
	// the real gradients.
	Quantized bool
}

func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 3
	}
	if c.IGBSize == 0 {
		c.IGBSize = 5
	}
	if c.DebugBufSize == 0 {
		c.DebugBufSize = 60
	}
	if c.MispredThreshold == 0 {
		c.MispredThreshold = DefaultMispredThreshold
	}
	if c.CheckInterval == 0 {
		c.CheckInterval = 1000
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.2
	}
	if c.RecoveryWindows == 0 {
		c.RecoveryWindows = 4
	}
	if c.SaturationEps == 0 {
		c.SaturationEps = 1e-6
	}
	if c.Encoder == nil {
		c.Encoder = deps.EncodeDefault
	}
	if c.LUT == nil {
		c.LUT = nn.DefaultLUT()
	}
	return c
}

// rateImprovementEps is the minimum per-window misprediction-rate drop
// that counts as training progress for the divergence breaker.
const rateImprovementEps = 0.01

// windowHealth classifies one completed rate window for the divergence
// breaker. The type is annotated //act:exhaustive: adding a fourth
// health state forces every switch over it — above all the breaker
// transition in checkRate — to handle the new state explicitly.
//
//act:exhaustive
type windowHealth int

const (
	// windowHealthy: rate at or below the breaker threshold, outputs
	// not saturated. Resets the breaker and refreshes the snapshot.
	windowHealthy windowHealth = iota
	// windowImproving: rate above threshold but falling by at least
	// rateImprovementEps per window — legitimate retraining on changed
	// code. Holds the breaker counter.
	windowImproving
	// windowStalled: above threshold without progress, or every output
	// pinned against the rails. Counts toward the rollback limit.
	windowStalled
)

// String names the health state (diagnostics and tests).
func (h windowHealth) String() string {
	switch h {
	case windowHealthy:
		return "healthy"
	case windowImproving:
		return "improving"
	case windowStalled:
		return "stalled"
	default:
		return fmt.Sprintf("windowHealth(%d)", int(h))
	}
}

// breakerThreshold is the rate above which a window counts as unhealthy
// for the divergence breaker. When the mode-switch threshold is a
// sentinel (outside [0, 1]), the breaker judges health against the
// default instead — a permanently-training module must still be able to
// detect corrupted weights.
func (c Config) breakerThreshold() float64 {
	if c.MispredThreshold < 0 || c.MispredThreshold > 1 {
		return DefaultMispredThreshold
	}
	return c.MispredThreshold
}

// TrajDepth is how many recent network outputs a module retains as
// Debug Buffer provenance: every logged entry carries the output
// trajectory that led up to it, so offline analysis can tell a verdict
// the network drifted into from one it snapped to.
const TrajDepth = 8

// DebugEntry is one Debug Buffer record: a predicted-invalid dependence
// sequence, the network output that condemned it, and when it happened.
type DebugEntry struct {
	Seq    deps.Sequence
	Output float64
	At     uint64 // dependence index within this module's stream
	Mode   Mode   // mode the module was in when it logged the entry
	Proc   uint16 // processor that logged it; stamped by Tracker.DebugBuffers
	// Traj is the module's recent output trajectory when the entry was
	// logged: the last TrajDepth network outputs on this module's
	// stream, oldest first, ending with the condemning Output. It is
	// diagnosis evidence, not identity — the wire format does not ship
	// it, so entries decoded from telemetry carry a nil trajectory.
	Traj []float64
}

// Stats aggregates a module's activity counters.
type Stats struct {
	Deps             uint64 // dependences processed
	Sequences        uint64 // full-length sequences classified
	PredictedInvalid uint64 // sequences the network rejected
	Updates          uint64 // online backprop weight updates
	ModeSwitches     uint64 // testing<->training transitions
	TrainingDeps     uint64 // dependences processed while training
	Snapshots        uint64 // weight snapshots taken on healthy windows
	Recoveries       uint64 // rollbacks to the last-known-good snapshot
	// CacheHits and CacheMisses are always zero. They counted a verdict
	// cache that no longer exists; the fields stay because the ACTK
	// module section carries their slots and perf/ hashes Stats field
	// by field. Window-memo hits are deliberately not counted here: the
	// memo is not checkpointed and its hits depend on batch chunking,
	// so Stats would stop being identical across chunkings and resumes.
	CacheHits   uint64
	CacheMisses uint64
}

// moduleStats is the live form of Stats: each counter individually
// atomic, so the metrics exporter can read a module mid-ReplayParallel
// without racing the owning worker goroutine. The owner is the sole
// writer, which keeps the atomic adds uncontended (a few ns); readers
// get each counter exactly, and cross-counter consistency only at
// quiescence — the monitoring contract.
type moduleStats struct {
	deps             atomic.Uint64
	sequences        atomic.Uint64
	predictedInvalid atomic.Uint64
	updates          atomic.Uint64
	modeSwitches     atomic.Uint64
	trainingDeps     atomic.Uint64
	snapshots        atomic.Uint64
	recoveries       atomic.Uint64
}

// load materializes the counters as a plain Stats value. The owner adds
// to deps before trainingDeps, sequences, and predictedInvalid — per
// dependence in OnDep, per chunk in the batch path — so loading them in
// the opposite order (the literal's calls run left to right) keeps even
// a mid-replay snapshot within PredictedInvalid ≤ Sequences ≤ Deps and
// TrainingDeps ≤ Deps.
func (s *moduleStats) load() Stats {
	return Stats{
		PredictedInvalid: s.predictedInvalid.Load(),
		Sequences:        s.sequences.Load(),
		TrainingDeps:     s.trainingDeps.Load(),
		Deps:             s.deps.Load(),
		Updates:          s.updates.Load(),
		ModeSwitches:     s.modeSwitches.Load(),
		Snapshots:        s.snapshots.Load(),
		Recoveries:       s.recoveries.Load(),
	}
}

// Add accumulates o into s (aggregation across modules).
func (s *Stats) Add(o Stats) {
	s.Deps += o.Deps
	s.Sequences += o.Sequences
	s.PredictedInvalid += o.PredictedInvalid
	s.Updates += o.Updates
	s.ModeSwitches += o.ModeSwitches
	s.TrainingDeps += o.TrainingDeps
	s.Snapshots += o.Snapshots
	s.Recoveries += o.Recoveries
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
}

// Module is one processor's ACT Module. It is not safe for concurrent
// use; in the simulated machine each core owns exactly one.
type Module struct {
	cfg  Config
	net  *nn.Network
	mode Mode

	// Input Generator Buffer, a ring of the last IGBSize dependences:
	// igb is allocated once, ighead indexes the oldest entry, igcnt is
	// the live count. The ring (rather than an appended-and-resliced
	// slice) keeps the per-dependence path allocation-free.
	igb    []deps.Dep
	ighead int
	igcnt  int

	debug []DebugEntry
	dhead int // ring index of oldest debug entry
	dfull bool

	invalid int // Invalid Counter since last rate check
	window  int // dependences since last rate check

	// Snapshot/rollback circuit breaker: snap holds the last-known-good
	// weights, badWindows counts consecutive stalled unhealthy rate
	// windows, satWindow counts saturated outputs in the current window,
	// lastRate is the previous window's misprediction rate.
	snap       []float64
	badWindows int
	satWindow  int
	lastRate   float64

	// Reusable classification buffers: seqbuf holds the padded sequence
	// under test (cloned only when it must outlive the call, i.e. on a
	// Debug Buffer insert), xbuf the encoded feature vector.
	seqbuf deps.Sequence
	xbuf   []float64

	// gen is bumped by every weight mutation and mode switch, so the
	// compiled kernel and the window memo (quant.go) are never used
	// under weights they were not built for. It is atomic only so the
	// metrics exporter can sample weight-update generations during
	// ReplayParallel; the owning goroutine remains the sole writer.
	gen atomic.Uint64

	// Output-trajectory ring: the last TrajDepth network outputs, kept
	// as Debug Buffer provenance. thead indexes the oldest sample, tcnt
	// the live count. A fixed array keeps the per-dependence push off
	// the heap.
	traj  [TrajDepth]float64
	thead int
	tcnt  int

	// Fixed-point inference state (Config.Quantized; see quant.go):
	// qnet is the kernel compiled for weight generation qgen; qbad
	// remembers a failed compile for generation qbadGen so a poisoned
	// weight state falls back to float without retrying per dependence.
	qnet    *nn.QNetwork
	qgen    uint64
	qbad    bool
	qbadGen uint64

	// Batch classification state (OnDeps, either precision; see
	// quant.go): memo is the generation-stamped window memo consulted
	// before encoding; bdeps is the history/batch boundary buffer and
	// bhash, bmiss, bfeat, bouts, bmouts the per-chunk scratch, each
	// grown to the chunk and miss counts seen.
	memo   windowMemo
	bdeps  []deps.Dep
	bhash  []uint64
	bmiss  []int32
	bfeat  []float64
	bouts  []float64
	bmouts []float64

	stats moduleStats
}

// NewModule creates an AM operating on the given network (which it
// mutates during online training — pass a clone if the caller keeps the
// original). The network's activation is replaced by the hardware
// sigmoid table.
func NewModule(net *nn.Network, cfg Config) *Module {
	cfg = cfg.withDefaults()
	if cfg.N > cfg.IGBSize {
		panic(fmt.Sprintf("core: sequence length %d exceeds IGB size %d", cfg.N, cfg.IGBSize))
	}
	want := deps.InputLen(cfg.Encoder, cfg.N)
	if net.NIn != want {
		panic(fmt.Sprintf("core: network input width %d, want %d for N=%d", net.NIn, want, cfg.N))
	}
	net.Act = cfg.LUT.Activation()
	m := &Module{
		cfg:      cfg,
		net:      net,
		igb:      make([]deps.Dep, cfg.IGBSize),
		seqbuf:   make(deps.Sequence, cfg.N),
		debug:    make([]DebugEntry, 0, cfg.DebugBufSize),
		lastRate: 1,
	}
	// The deployment-time weights are the first known-good state: even
	// an untrained module must have something finite to roll back to
	// when an SEU lands before the first healthy window.
	if m.weightsFinite() {
		m.Snapshot()
	}
	return m
}

// Mode returns the module's current operating mode.
func (m *Module) Mode() Mode { return m.mode }

// Stats returns a copy of the activity counters. Each counter is read
// atomically, so calling this concurrently with the owning goroutine's
// OnDep stream is race-free (see Tracker.StatsSnapshot).
func (m *Module) Stats() Stats { return m.stats.load() }

// Generation returns the weight-state generation — a counter bumped by
// every weight mutation, mode switch, and breaker recovery. Safe to
// read concurrently; exported as act_core_weight_generations.
func (m *Module) Generation() uint64 { return m.gen.Load() }

// Config returns the module's (defaulted) configuration.
func (m *Module) Config() Config { return m.cfg }

// Network exposes the underlying network (for weight save/restore).
// A caller that mutates weights through it must call InvalidateVerdicts
// afterwards, or the module — in either precision — may serve memoized
// verdicts computed under the old weights (and, when Quantized, classify
// with a kernel compiled from them).
func (m *Module) Network() *nn.Network { return m.net }

// InvalidateVerdicts orphans the window memo and the compiled kernel by
// moving the weight generation — required after mutating weights
// directly through Network() (fault injection, external quantization),
// whatever the module's precision.
func (m *Module) InvalidateVerdicts() { m.gen.Add(1) }

// OnDep processes one RAW dependence: it enters the Input Generator
// Buffer, the last N dependences form the network input, and the
// sequence is classified. It returns whether a full sequence was formed
// and, if so, whether it was predicted invalid.
//
// OnDep runs the network on every dependence, with no memo: it is the
// path of training mode, Tracker.OnRecord and the timing simulator, and
// the reference the batch path (OnDeps) must match bit for bit.
//
// The steady-state path is allocation-free (TestOnDepSteadyStateAllocs
// pins it dynamically; the annotation pins it statically).
//
//act:noalloc
func (m *Module) OnDep(d deps.Dep) (classified, predictedInvalid bool) {
	at := m.stats.deps.Add(1)
	if m.mode == Training {
		m.stats.trainingDeps.Add(1)
	}
	if m.igcnt < m.cfg.IGBSize {
		m.igb[(m.ighead+m.igcnt)%m.cfg.IGBSize] = d
		m.igcnt++
	} else {
		m.igb[m.ighead] = d
		m.ighead = (m.ighead + 1) % m.cfg.IGBSize
	}
	// Pad the front with zero dependences while the IGB is still
	// filling, mirroring the extractor: even the first dependence after
	// deployment is classified. seqbuf is reused across calls; only a
	// Debug Buffer insert clones it.
	seq := m.seqbuf
	if m.igcnt >= m.cfg.N {
		for i := 0; i < m.cfg.N; i++ {
			seq[i] = m.igb[(m.ighead+m.igcnt-m.cfg.N+i)%m.cfg.IGBSize]
		}
	} else {
		pad := m.cfg.N - m.igcnt
		for i := 0; i < pad; i++ {
			seq[i] = deps.Dep{}
		}
		for i := 0; i < m.igcnt; i++ {
			seq[pad+i] = m.igb[(m.ighead+i)%m.cfg.IGBSize]
		}
	}
	m.xbuf = m.cfg.Encoder(seq, m.xbuf) //act:alloc-ok-call registered encoders reuse the destination buffer
	m.stats.sequences.Add(1)

	var out float64
	if m.mode == Training {
		// Online training assumes every dependence is correct: a
		// predicted-invalid sequence is a misprediction and drives a
		// backprop step toward "valid". It is still logged, since it
		// might in fact be the bug (Section III-C). Every step mutates
		// the weights, so the generation moves with it.
		out = m.net.Train(m.xbuf, nn.TargetValid, m.cfg.LearningRate)
		m.gen.Add(1)
		if out < 0.5 {
			m.stats.updates.Add(1)
		}
	} else {
		out = m.classify()
	}

	// A non-finite output means the weight state itself is poisoned
	// (an SEU or a runaway update): no amount of further training fixes
	// NaN, and NaN compares false against every threshold, so the rate
	// machinery would never notice. Roll back immediately and classify
	// with the restored weights.
	if m.cfg.RecoveryWindows >= 0 && (math.IsNaN(out) || math.IsInf(out, 0)) {
		m.recover()
		out = m.classify()
	}
	if out <= m.cfg.SaturationEps || out >= 1-m.cfg.SaturationEps {
		m.satWindow++
	}
	m.pushTraj(out)

	invalid := out < 0.5
	if invalid {
		m.stats.predictedInvalid.Add(1)
		m.invalid++
		m.logDebug(seq, out, at) //act:alloc-ok-call debug-ring capture, only on predicted-invalid
	}
	m.window++
	if m.window >= m.cfg.CheckInterval {
		m.checkRate()
	}
	return true, invalid
}

// classifyWindow maps a completed window's misprediction rate and
// saturation flag onto the breaker's health state machine.
//
//act:noalloc
func (m *Module) classifyWindow(rate float64, saturated bool) windowHealth {
	switch {
	case rate <= m.cfg.breakerThreshold() && !saturated:
		return windowHealthy
	case rate < m.lastRate-rateImprovementEps && !saturated:
		return windowImproving
	default:
		return windowStalled
	}
}

// checkRate implements the periodic Invalid Counter inspection that
// flips the AM between testing and training, extended with the
// snapshot/rollback circuit breaker: healthy testing windows snapshot
// the weights, K consecutive stalled windows restore them.
//
//act:noalloc
func (m *Module) checkRate() {
	rate := float64(m.invalid) / float64(m.window)
	statWindowRate.Observe(uint64(rate * 1000))
	// A window whose every output was pinned against 0 or 1 is treated
	// as unhealthy regardless of its rate: corrupted large-magnitude
	// weights saturate the sigmoid, often on the "valid" side where the
	// misprediction rate goes quiet.
	saturated := m.satWindow == m.window

	recovered := false
	if m.cfg.RecoveryWindows >= 0 {
		switch m.classifyWindow(rate, saturated) {
		case windowHealthy:
			m.badWindows = 0
			if m.mode == Testing && m.weightsFinite() {
				m.Snapshot()
			}
		case windowImproving:
			// Online training is converging on legitimately changed
			// code. Hold the counter.
		case windowStalled:
			m.badWindows++
			if m.badWindows >= m.cfg.RecoveryWindows {
				m.recover()
				recovered = true
			}
		}
	}
	m.lastRate = rate

	if !recovered {
		switch {
		case m.cfg.MispredThreshold < 0: // AlwaysTrain sentinel
			if m.mode == Testing {
				m.mode = Training
				m.stats.modeSwitches.Add(1)
				m.gen.Add(1)
			}
		case m.mode == Testing:
			if rate > m.cfg.MispredThreshold {
				m.mode = Training
				m.stats.modeSwitches.Add(1)
				m.gen.Add(1)
			}
		case m.mode == Training:
			if rate < m.cfg.MispredThreshold {
				m.mode = Testing
				m.stats.modeSwitches.Add(1)
				m.gen.Add(1)
			}
		}
	}
	m.invalid = 0
	m.window = 0
	m.satWindow = 0
}

// Snapshot records the current weights as the last-known-good state the
// breaker restores on divergence. The module takes one automatically at
// construction, after LoadWeights, and on every healthy testing window.
// At steady state the snapshot buffer is already sized, so the flatten
// re-fills it in place.
//
//act:noalloc
func (m *Module) Snapshot() {
	m.snap = m.net.Flatten(m.snap[:0])
	m.stats.snapshots.Add(1)
}

// recover restores the last-known-good snapshot and returns the module
// to testing mode (unless it is pinned in training by the AlwaysTrain
// sentinel), counting the event in Stats.Recoveries.
//
//act:noalloc
func (m *Module) recover() {
	if m.snap == nil {
		// Nothing known-good to restore (the module was constructed
		// with non-finite weights and never loaded sane ones).
		m.badWindows = 0
		return
	}
	if err := m.net.LoadFlat(m.snap); err != nil {
		panic(err) // snapshot taken from this network; unreachable
	}
	m.stats.recoveries.Add(1)
	m.gen.Add(1)
	m.badWindows = 0
	m.lastRate = 1
	if m.mode != Testing && m.cfg.MispredThreshold >= 0 {
		m.mode = Testing
		m.stats.modeSwitches.Add(1)
	}
}

// weightsFinite reports whether every weight register holds a finite
// value — the precondition for a state to be snapshot-worthy.
//
//act:noalloc
func (m *Module) weightsFinite() bool {
	for i, n := 0, m.net.WeightCount(); i < n; i++ {
		if v := m.net.ReadRegister(i); math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// pushTraj records one network output in the trajectory ring. It runs
// on every classification, so it must stay allocation-free.
//
//act:noalloc
func (m *Module) pushTraj(out float64) {
	if m.tcnt < TrajDepth {
		m.traj[(m.thead+m.tcnt)%TrajDepth] = out
		m.tcnt++
		return
	}
	m.traj[m.thead] = out
	m.thead = (m.thead + 1) % TrajDepth
}

// trajSlice materializes the output trajectory, oldest first. Cold
// path: it runs only on a Debug Buffer insert.
func (m *Module) trajSlice() []float64 {
	out := make([]float64, m.tcnt)
	for i := 0; i < m.tcnt; i++ {
		out[i] = m.traj[(m.thead+i)%TrajDepth]
	}
	return out
}

// logDebug appends to the Debug Buffer, dropping the oldest entry when
// full (it holds only the last few invalid sequences). at is the
// dependence index of the triggering dependence, captured by the caller
// from its own counter increment.
func (m *Module) logDebug(s deps.Sequence, out float64, at uint64) {
	e := DebugEntry{Seq: s.Clone(), Output: out, At: at, Mode: m.mode, Traj: m.trajSlice()}
	if len(m.debug) < m.cfg.DebugBufSize {
		m.debug = append(m.debug, e)
		return
	}
	m.debug[m.dhead] = e
	m.dhead = (m.dhead + 1) % m.cfg.DebugBufSize
	m.dfull = true
}

// DebugBuffer returns the Debug Buffer contents, oldest first.
func (m *Module) DebugBuffer() []DebugEntry {
	if !m.dfull {
		return append([]DebugEntry(nil), m.debug...)
	}
	out := make([]DebugEntry, 0, len(m.debug))
	out = append(out, m.debug[m.dhead:]...)
	out = append(out, m.debug[:m.dhead]...)
	return out
}

// ResetDebug clears the Debug Buffer (e.g. after postprocessing).
func (m *Module) ResetDebug() {
	m.debug = m.debug[:0]
	m.dhead = 0
	m.dfull = false
}

// ForceMode overrides the operating mode (deployment with no stored
// weights starts in training mode; tests use it too).
func (m *Module) ForceMode(mode Mode) {
	if m.mode != mode {
		m.mode = mode
		m.stats.modeSwitches.Add(1)
		m.gen.Add(1)
	}
}

// TeachInvalid feeds a known-buggy sequence back to the network as a
// negative example (Section III-C: when a failure slipped past the
// network and the programmer pinpointed the invalid dependence sequence
// by other means, it is fed back like an offline negative). The sequence
// is trained until rejected or the attempt budget runs out; it returns
// whether the network now rejects it.
func (m *Module) TeachInvalid(s deps.Sequence) bool {
	if len(s) != m.cfg.N {
		padded := make(deps.Sequence, m.cfg.N)
		if len(s) > m.cfg.N {
			copy(padded, s[len(s)-m.cfg.N:])
		} else {
			copy(padded[m.cfg.N-len(s):], s)
		}
		s = padded
	}
	x := m.cfg.Encoder(s, nil)
	for i := 0; i < 5000; i++ {
		if m.net.Forward(x) < 0.5 {
			return true
		}
		m.net.Train(x, nn.TargetInvalid, m.cfg.LearningRate)
		m.stats.updates.Add(1)
		m.gen.Add(1)
	}
	return m.net.Forward(x) < 0.5
}

// SaveWeights reads out the weight registers (the ldwt loop run at
// thread termination or context switch).
func (m *Module) SaveWeights() []float64 {
	out := make([]float64, 0, m.net.WeightCount())
	for i := 0; i < m.net.WeightCount(); i++ {
		out = append(out, m.net.ReadRegister(i))
	}
	return out
}

// LoadWeights writes the weight registers (the stwt loop run at thread
// creation or context-switch restore). Explicitly loaded weights are
// taken as known-good: they become the breaker's rollback snapshot,
// provided they are finite.
func (m *Module) LoadWeights(w []float64) error {
	if len(w) != m.net.WeightCount() {
		return fmt.Errorf("core: weight count %d, want %d", len(w), m.net.WeightCount())
	}
	for i, v := range w {
		m.net.WriteRegister(i, v)
	}
	m.gen.Add(1)
	if m.weightsFinite() {
		m.Snapshot()
	}
	return nil
}
