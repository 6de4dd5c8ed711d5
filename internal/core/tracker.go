package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"act/internal/deps"
	"act/internal/nn"
	"act/internal/trace"
)

// WeightBinary models the program binary augmented with per-thread
// network topology and weights (Section IV-B/IV-C): the thread-creation
// hook checks for a thread's weights (chkwt), loads them (stwt loop) or
// falls back to default weights that force online training; the
// thread-termination hook reads the registers back (ldwt loop) so one
// execution's learning patches the binary for the next.
//
// All methods are safe for concurrent use: with parallel replay,
// modules can be patched back from worker goroutines while another
// deployment reads initial weights out.
type WeightBinary struct {
	NIn, NHidden int

	mu       sync.RWMutex
	byThread map[int][]float64 // guarded by mu
}

// NewWeightBinary creates a binary image for the given topology.
func NewWeightBinary(nIn, nHidden int) *WeightBinary {
	return &WeightBinary{NIn: nIn, NHidden: nHidden, byThread: make(map[int][]float64)}
}

// Has implements chkwt: does thread tid have stored weights?
func (wb *WeightBinary) Has(tid int) bool {
	wb.mu.RLock()
	defer wb.mu.RUnlock()
	_, ok := wb.byThread[tid]
	return ok
}

// Get returns a copy of thread tid's weights, or nil if absent.
func (wb *WeightBinary) Get(tid int) []float64 {
	wb.mu.RLock()
	defer wb.mu.RUnlock()
	w, ok := wb.byThread[tid]
	if !ok {
		return nil
	}
	return append([]float64(nil), w...)
}

// Patch stores thread tid's weights (the post-run binary patching step).
func (wb *WeightBinary) Patch(tid int, w []float64) {
	cp := append([]float64(nil), w...)
	wb.mu.Lock()
	wb.byThread[tid] = cp
	wb.mu.Unlock()
}

// PatchAll stores the same weights for thread ids 0..n-1, the common
// case after offline training where every thread shares one topology
// and the initial weights.
func (wb *WeightBinary) PatchAll(n int, w []float64) {
	for t := 0; t < n; t++ {
		wb.Patch(t, w)
	}
}

// Threads returns the thread ids with stored weights, ascending.
func (wb *WeightBinary) Threads() []int {
	wb.mu.RLock()
	out := make([]int, 0, len(wb.byThread))
	for t := range wb.byThread {
		out = append(out, t)
	}
	wb.mu.RUnlock()
	sort.Ints(out)
	return out
}

// AlwaysValidBinary returns a weight binary whose network classifies
// every input as valid (zero weights, strongly positive output bias),
// patched for the first nThreads threads. Timing experiments use it to
// model a converged, misprediction-free deployment without running
// offline training.
func AlwaysValidBinary(nIn, nHidden, nThreads int) *WeightBinary {
	wb := NewWeightBinary(nIn, nHidden)
	w := make([]float64, nHidden*(nIn+1)+nHidden+1)
	w[len(w)-1] = 4 // output bias: sigmoid(4) ≈ 0.98
	wb.PatchAll(nThreads, w)
	return wb
}

// MaxTid is the largest thread id a Tracker accepts. Debug Buffer
// entries stamp the logging processor as a 16-bit field (matching the
// trace and wire formats), so larger ids cannot be represented without
// aliasing in the diagnosis reports.
const MaxTid = math.MaxUint16

// Tracker deploys one ACT Module per processor and routes the RAW
// dependence stream to them. Threads are pinned one-to-one to
// processors, matching the simulated machine. The Tracker is the
// functional (timing-free) deployment used for diagnosis experiments;
// the timing simulator wires the same Modules into its cores.
type Tracker struct {
	cfg     Config
	tcfg    TrackerConfig // as passed to NewTracker, for the checkpoint fingerprint
	binary  *WeightBinary
	ext     *deps.Extractor
	modules map[int]*Module
	dense   []*Module // lookup fast path, indexed by tid
	seed    int64

	// mu guards the exporter-facing module list. modules and dense above
	// belong to the replay goroutine alone; all is the copy a concurrent
	// metrics scrape may walk while ReplayParallel is mid-flight. It is
	// appended only on module creation (cold path), so the lock never
	// touches the per-dependence stream.
	mu  sync.Mutex
	all []*Module // guarded by mu

	// stage holds Replay's per-module staging buffers, indexed by tid:
	// sequential replay hands dependences to OnDeps in runs of up to
	// stageBatch so the batch path amortizes its probes and dispatch.
	// Buffers are allocated once per module and reused across Replay
	// calls. stageFn is the stageDep method value, bound once so that
	// installing it as the extractor's sink on every Replay allocates
	// nothing.
	stage   [][]deps.Dep
	stageFn func(tid uint16, d deps.Dep)

	// fanPool keeps ReplayParallel's fan-out batch buffers between
	// calls.
	fanPool deps.BatchPool
}

// TrackerConfig bundles deployment parameters.
type TrackerConfig struct {
	Module      Config
	Granularity uint64 // last-writer granule; default word
	FilterStack bool
	Seed        int64 // initialization of default (untrained) weights
}

// NewTracker creates a deployment backed by the given weight binary.
func NewTracker(binary *WeightBinary, cfg TrackerConfig) *Tracker {
	mc := cfg.Module.withDefaults()
	want := deps.InputLen(mc.Encoder, mc.N)
	if binary.NIn != want {
		panic(fmt.Sprintf("core: binary topology input %d, want %d for N=%d", binary.NIn, want, mc.N))
	}
	t := &Tracker{
		cfg:     mc,
		tcfg:    cfg,
		binary:  binary,
		modules: make(map[int]*Module),
		seed:    cfg.Seed,
	}
	t.ext = deps.NewExtractor(deps.ExtractorConfig{
		N:           mc.N,
		Granularity: cfg.Granularity,
		FilterStack: cfg.FilterStack,
	})
	t.ext.OnDep = func(tid uint16, d deps.Dep) {
		t.moduleAt(int(tid)).OnDep(d)
	}
	t.stageFn = t.stageDep
	return t
}

// ModuleOf returns (creating on first use — the pthread_create hook) the
// ACT Module of the processor running thread tid, or an error when tid
// is outside [0, MaxTid]. A thread with stored weights starts in testing
// mode; one without gets random default weights and starts in training
// mode, exactly the fallback the paper describes for threads unseen
// during offline training.
func (t *Tracker) ModuleOf(tid int) (*Module, error) {
	if tid < 0 || tid > MaxTid {
		return nil, fmt.Errorf("core: thread id %d outside [0, %d]", tid, MaxTid)
	}
	return t.moduleAt(tid), nil
}

// Module is ModuleOf for callers with known-good thread ids; it panics
// when tid is out of range. (Earlier versions silently truncated the id
// to 16 bits, aliasing distinct threads onto one module.)
func (t *Tracker) Module(tid int) *Module {
	m, err := t.ModuleOf(tid)
	if err != nil {
		panic(err)
	}
	return m
}

// moduleAt is the range-checked-by-caller lookup: a dense slice indexed
// by tid keeps the per-dependence routing off map hashing.
func (t *Tracker) moduleAt(tid int) *Module {
	if tid < len(t.dense) {
		if m := t.dense[tid]; m != nil {
			return m
		}
	}
	// Only a thread the binary has no weights for keeps its initial
	// weights, so only it pays for seeding a PRNG; a shipped thread's
	// zero weights are overwritten by LoadWeights.
	w := t.binary.Get(tid)
	var rng *rand.Rand
	if w == nil {
		rng = rand.New(rand.NewSource(t.seed + int64(tid)))
	}
	m := NewModule(nn.New(t.binary.NIn, t.binary.NHidden, rng), t.cfg)
	if w != nil {
		if err := m.LoadWeights(w); err != nil {
			panic(err) // topology checked in NewTracker; unreachable
		}
	} else {
		m.ForceMode(Training)
	}
	t.modules[tid] = m
	if tid >= len(t.dense) {
		grown := make([]*Module, tid+1)
		copy(grown, t.dense)
		t.dense = grown
	}
	t.dense[tid] = m
	t.mu.Lock()
	t.all = append(t.all, m)
	t.mu.Unlock()
	return m
}

// snapshotModules copies the module list for lock-free iteration.
func (t *Tracker) snapshotModules() []*Module {
	t.mu.Lock()
	out := make([]*Module, len(t.all))
	copy(out, t.all)
	t.mu.Unlock()
	return out
}

// OnRecord feeds one memory-trace record through last-writer tracking;
// loads that close a dependence reach the owning module's OnDep at
// once, classified on their own with no memo.
func (t *Tracker) OnRecord(r trace.Record) {
	if r.Store {
		t.ext.Store(r.Tid, r.PC, r.Addr, r.Stack)
	} else {
		t.ext.Load(r.Tid, r.PC, r.Addr, r.Stack)
	}
}

// stageBatch is sequential Replay's per-module staging depth. Each
// module still observes exactly its own dependence stream in order —
// OnDeps makes the batch boundary invisible — so staging changes no
// observable; it only lets the batch path probe the memo and classify
// runs per call.
const stageBatch = 256

// stageDep buffers one formed dependence, draining the module's buffer
// through OnDeps when full.
func (t *Tracker) stageDep(tid uint16, d deps.Dep) {
	i := int(tid)
	if i >= len(t.stage) {
		grown := make([][]deps.Dep, i+1)
		copy(grown, t.stage)
		t.stage = grown
	}
	b := t.stage[i]
	if b == nil {
		b = make([]deps.Dep, 0, stageBatch)
	}
	b = append(b, d)
	if len(b) == stageBatch {
		t.moduleAt(i).OnDeps(b)
		b = b[:0]
	}
	t.stage[i] = b
}

// flushStaged drains every non-empty staging buffer, ascending tid.
// Flush order across modules is irrelevant to any observable (module
// state is strictly per-processor) but kept deterministic anyway.
func (t *Tracker) flushStaged() {
	for i, b := range t.stage {
		if len(b) > 0 {
			t.moduleAt(i).OnDeps(b)
			t.stage[i] = b[:0]
		}
	}
}

// Replay feeds a whole trace through the tracker sequentially, staging
// formed dependences per module (see stageBatch). See ReplayParallel
// for the pipelined equivalent and ReplayCheckpointed — which this is a
// thin wrapper over — for checkpoint/resume; OnRecord remains the
// unstaged immediate path. A warm call allocates nothing.
func (t *Tracker) Replay(tr *trace.Trace) {
	t.mustReplay(tr, nil)
}

// DebugBuffers concatenates every module's Debug Buffer, ordered by
// processor then insertion index — the log handed to offline
// postprocessing after a failure. Each entry is stamped with the
// processor that logged it. The order is deterministic for a given
// deployment history, so dedup hashes computed over the result are
// stable across runs.
func (t *Tracker) DebugBuffers() []DebugEntry {
	tids := make([]int, 0, len(t.modules))
	for tid := range t.modules {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	var out []DebugEntry
	for _, tid := range tids {
		buf := t.modules[tid].DebugBuffer()
		for i := range buf {
			buf[i].Proc = uint16(tid)
		}
		out = append(out, buf...)
	}
	// DebugBuffer already yields each module oldest-first; the explicit
	// sort pins the (processor, insertion index) contract even if a
	// module's internal layout changes.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Proc != out[j].Proc {
			return out[i].Proc < out[j].Proc
		}
		return out[i].At < out[j].At
	})
	return out
}

// ResetDebug clears every module's Debug Buffer — the drain step a
// telemetry agent runs after shipping the entries off the box, so the
// next drain only sees new suspicions.
func (t *Tracker) ResetDebug() {
	for _, m := range t.modules {
		m.ResetDebug()
	}
}

// Shutdown reads back every module's weights into the binary (the
// pthread_exit hook plus binary patching), so a subsequent Tracker
// benefits from this execution's online learning.
func (t *Tracker) Shutdown() {
	for tid, m := range t.modules {
		t.binary.Patch(tid, m.SaveWeights())
	}
}

// Stats sums all module counters. Equivalent to StatsSnapshot; kept as
// the established name for quiescent callers.
func (t *Tracker) Stats() Stats {
	return t.StatsSnapshot()
}

// StatsSnapshot sums all module counters race-free: the module list is
// copied under the tracker's lock and each counter is read atomically,
// so a metrics scrape may call it while ReplayParallel is running. Each
// individual counter is exact; the sums across counters are consistent
// with each other only once replay has quiesced.
func (t *Tracker) StatsSnapshot() Stats {
	var s Stats
	for _, m := range t.snapshotModules() {
		s.Add(m.Stats())
	}
	return s
}

// Modules returns the number of deployed ACT Modules. Safe to call
// concurrently with replay.
func (t *Tracker) Modules() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.all)
}

// Generations sums every module's weight-state generation — a
// monotonic proxy for "weight-state mutations across the deployment"
// (act_core_weight_generations). Safe to call concurrently with replay.
func (t *Tracker) Generations() uint64 {
	var g uint64
	for _, m := range t.snapshotModules() {
		g += m.Generation()
	}
	return g
}
