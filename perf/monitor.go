package perf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	"act"
	"act/internal/core"
	"act/internal/deps"
	"act/internal/nn"
	"act/internal/trace"
	"act/internal/workloads"
)

// Execution seeds. Models are trained on fixed runs, the program's test
// suite (training runs from seed 0, held-out runs from heldOutSeed), so
// every workload seed deploys the same models. The workload seed varies
// the production inputs: it owns a block of seedBlock execution seeds.
// Which topology training picks swings a workload's cost by more than
// any bound, so it must not change with the seed.
const (
	heldOutSeed = 10_000
	seedBlock   = 1_000_000
	monitorSeed = 100_000 // offset of the monitored executions in the block
)

// stageBatch is core's sequential Replay staging depth: the layer
// decomposition hands each module its dependences in runs of this size,
// as Replay does.
const stageBatch = 256

// steadyKernels are the Table IV kernels whose trained models converge:
// every kernel except barnes, fft and streamcluster.
var steadyKernels = []string{
	"lu", "radix", "ocean", "canneal", "fluidanimate", "swaptions", "dedup",
	"bzip2", "mcf", "gcc", "sort",
}

// adaptiveKernels are the kernels whose trained models keep
// mispredicting fresh executions, so their modules train online.
var adaptiveKernels = []string{"barnes", "fft", "streamcluster"}

func setupSteady(seed int64, quick bool) (instance, setupTimes, error) {
	if quick {
		return setupKernels([]string{"mcf"}, 20, seed)
	}
	return setupKernels(steadyKernels, 200, seed)
}

func setupAdaptive(seed int64, quick bool) (instance, setupTimes, error) {
	if quick {
		return setupKernels([]string{"streamcluster"}, 30, seed)
	}
	return setupKernels(adaptiveKernels, 600, seed)
}

// deployment is one deployed model and the executions it monitors back
// to back.
type deployment struct {
	threads      int
	n            int
	nIn, nHidden int
	weights      []float64 // patched into every thread, as act.Deploy does
	execs        []*trace.Trace
}

// deploy builds a fresh tracker with default configuration.
func (d *deployment) deploy() *core.Tracker {
	b := core.NewWeightBinary(d.nIn, d.nHidden)
	b.PatchAll(d.threads, d.weights)
	return core.NewTracker(b, core.TrackerConfig{Module: core.Config{N: d.n}})
}

// setupKernels trains each kernel with act.Train defaults on 10
// training and 4 held-out correct runs and collects execs fresh
// executions for it to monitor.
func setupKernels(names []string, execs int, seed int64) (instance, setupTimes, error) {
	var st setupTimes
	m := &monitor{}
	base := seed * seedBlock
	for _, name := range names {
		w, err := workloads.KernelByName(name)
		if err != nil {
			return nil, st, err
		}
		t0 := time.Now()
		train, err := collectKernel(w, 10, 0)
		if err != nil {
			return nil, st, err
		}
		test, err := collectKernel(w, 4, heldOutSeed)
		if err != nil {
			return nil, st, err
		}
		ex, err := collectKernel(w, execs, base+monitorSeed)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		model, err := act.Train(train, test)
		if err != nil {
			return nil, st, fmt.Errorf("training %s: %w", name, err)
		}
		n, net, err := modelNetwork(model)
		if err != nil {
			return nil, st, err
		}
		st.collect += t1.Sub(t0)
		st.train += time.Since(t1)
		m.deploys = append(m.deploys, &deployment{threads: w.Threads, n: n,
			nIn: net.NIn, nHidden: net.NHidden, weights: net.Flatten(nil), execs: ex})
	}
	return m, st, nil
}

// modelNetwork reads a trained model's sequence length and network back
// from its saved form.
func modelNetwork(m *act.Model) (int, *nn.Network, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return 0, nil, err
	}
	b := buf.Bytes()
	var net nn.Network
	if err := net.UnmarshalBinary(b[1:]); err != nil {
		return 0, nil, err
	}
	return int(b[0]), &net, nil
}

// collectKernel collects n correct executions of w, starting at seed
// from.
func collectKernel(w workloads.Workload, n int, from int64) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, 0, n)
	for s := from; len(out) < n; s++ {
		if s-from > int64(10*n) {
			return nil, fmt.Errorf("%s: only %d correct executions in %d seeds", w.Name, len(out), s-from)
		}
		tr, res := trace.Collect(w.Build(s), w.Sched(s))
		if !res.Failed && !res.TimedOut {
			out = append(out, tr)
		}
	}
	return out, nil
}

// monitor is a monitor workload: deployments replayed in turn, one
// fresh tracker each per pass, so every pass does identical work. An
// operation is one execution's Tracker.Replay.
type monitor struct {
	deploys []*deployment
	ref     uint64 // digest every pass must reproduce
}

func (m *monitor) shape() passShape {
	var sh passShape
	for _, d := range m.deploys {
		sh.ops += len(d.execs)
		for _, ex := range d.execs {
			sh.records += len(ex.Records)
		}
	}
	return sh
}

func (m *monitor) inputDigest() uint64 {
	h := newDigest()
	for _, d := range m.deploys {
		h.u64(uint64(d.threads), uint64(d.n), uint64(d.nIn), uint64(d.nHidden))
		h.floats(d.weights)
		for _, ex := range d.execs {
			h.trace(ex)
		}
	}
	return h.Sum64()
}

// reference replays every execution record by record through the
// unstaged Tracker.OnRecord path.
func (m *monitor) reference() error {
	h := newDigest()
	for _, d := range m.deploys {
		t := d.deploy()
		for _, ex := range d.execs {
			for _, r := range ex.Records {
				t.OnRecord(r)
			}
		}
		h.tracker(t, d.threads)
	}
	m.ref = h.Sum64()
	return nil
}

func (m *monitor) pass(lat []float64) ([]float64, passOut, error) {
	var out passOut
	h := newDigest()
	for _, d := range m.deploys {
		t0 := time.Now()
		t := d.deploy()
		out.busy += time.Since(t0)
		for _, ex := range d.execs {
			s := time.Now()
			t.Replay(ex)
			e := time.Since(s)
			out.busy += e
			lat = append(lat, float64(e.Nanoseconds())/1e3)
		}
		h.tracker(t, d.threads)
		out.stats.Add(t.Stats())
	}
	out.check(h.Sum64() == m.ref)
	return lat, out, nil
}

// tracedPass deploys and replays each deployment with the layers
// called separately. Each deployment and each execution's replay is an
// operation of its own, as in the timed pass.
func (m *monitor) tracedPass(tr *tracer) (passOut, error) {
	var out passOut
	h := newDigest()
	for _, d := range m.deploys {
		op := tr.begin("op")
		s := tr.start(op, "core.deploy")
		t, l := d.deploy(), newLayered(d.n)
		tr.end(s)
		tr.end(op)
		for _, ex := range d.execs {
			op := tr.begin("op")
			l.replay(tr, op, t, ex)
			tr.end(op)
		}
		h.tracker(t, d.threads)
		out.stats.Add(t.Stats())
	}
	out.check(h.Sum64() == m.ref)
	return out, nil
}

func (m *monitor) profile() *windowProfile {
	streams := make([][][]deps.Dep, len(m.deploys))
	windows := 0
	for i, d := range m.deploys {
		streams[i] = extractStreams(d.n, d.execs)
		for _, s := range streams[i] {
			windows += len(s)
		}
	}
	p := newWindowProfile(windows)
	for i, d := range m.deploys {
		g := p.group(d.deploy().Module(0).Network())
		for tid, s := range streams[i] {
			p.addStream(uint64(i)<<16|uint64(tid), g, d.n, deps.EncodeDefault, s)
		}
	}
	return p
}

// check records one checked unit.
func (o *passOut) check(ok bool) {
	o.checks++
	if !ok {
		o.failed++
	}
}

// layered replays executions through a tracker the way Tracker.Replay
// does, but with each layer called on its own: Tracker.Replay of an
// empty trace pays the replay engine's per-call cost (stage graph and
// its metrics), its own deps.Extractor resolves last writers over the
// execution's records, collecting each thread's dependences, then each
// thread's module classifies them through Module.OnDeps in Replay's
// staging batches. Batch boundaries are invisible to a module, so the
// tracker ends in the state Replay would leave it in.
type layered struct {
	ext     *deps.Extractor
	streams [][]deps.Dep // the current execution's dependences, per thread
	empty   trace.Trace
}

func newLayered(n int) *layered {
	l := &layered{ext: deps.NewExtractor(deps.ExtractorConfig{N: n})}
	l.ext.OnDep = func(tid uint16, d deps.Dep) {
		for int(tid) >= len(l.streams) {
			l.streams = append(l.streams, nil)
		}
		l.streams[tid] = append(l.streams[tid], d)
	}
	return l
}

// replay replays one execution through t, with a span for each layer
// under parent.
func (l *layered) replay(tr *tracer, parent int, t *core.Tracker, ex *trace.Trace) {
	s := tr.start(parent, "core.replay")
	p := tr.start(s, "pipeline.call")
	t.Replay(&l.empty)
	tr.end(p)
	e := tr.start(s, "deps.extract")
	for i := range l.streams {
		l.streams[i] = l.streams[i][:0]
	}
	l.feed(ex)
	tr.end(e)
	c := tr.start(s, "core.classify")
	for tid, ds := range l.streams {
		if len(ds) == 0 {
			continue
		}
		mod := t.Module(tid)
		for len(ds) > 0 {
			k := min(len(ds), stageBatch)
			mod.OnDeps(ds[:k])
			ds = ds[k:]
		}
	}
	tr.end(c)
	tr.end(s)
}

// feed resolves last writers over ex's records, appending each formed
// dependence to its thread's stream.
func (l *layered) feed(ex *trace.Trace) {
	for _, r := range ex.Records {
		if r.Store {
			l.ext.Store(r.Tid, r.PC, r.Addr, r.Stack)
		} else {
			l.ext.Load(r.Tid, r.PC, r.Addr, r.Stack)
		}
	}
}

// extractStreams returns each thread's dependence stream over execs
// replayed back to back.
func extractStreams(n int, execs []*trace.Trace) [][]deps.Dep {
	l := newLayered(n)
	for _, ex := range execs {
		l.feed(ex)
	}
	return l.streams
}

// digest hashes outputs and inputs for equality checks.
type digest struct {
	hash.Hash64
	buf [8]byte
}

func newDigest() *digest { return &digest{Hash64: fnv.New64a()} }

func (h *digest) u64(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(h.buf[:], v)
		h.Write(h.buf[:])
	}
}

func (h *digest) floats(fs []float64) {
	h.u64(uint64(len(fs)))
	for _, f := range fs {
		h.u64(math.Float64bits(f))
	}
}

func (h *digest) trace(t *trace.Trace) {
	h.u64(uint64(len(t.Records)))
	for _, r := range t.Records {
		h.u64(r.Seq, r.PC, r.Addr, uint64(r.Tid), b2u(r.Store), b2u(r.Stack))
	}
}

// tracker hashes a deployment's observable outputs: summed Stats, every
// Debug Buffer entry (sequence, output bits, position, mode, processor)
// and each thread's final weights.
func (h *digest) tracker(t *core.Tracker, threads int) {
	st := t.Stats()
	h.u64(st.Deps, st.Sequences, st.PredictedInvalid, st.Updates, st.ModeSwitches,
		st.TrainingDeps, st.Snapshots, st.Recoveries, st.CacheHits, st.CacheMisses)
	dbg := t.DebugBuffers()
	h.u64(uint64(len(dbg)))
	for _, e := range dbg {
		h.u64(uint64(len(e.Seq)))
		for _, d := range e.Seq {
			h.u64(d.S, d.L, b2u(d.Inter))
		}
		h.u64(math.Float64bits(e.Output), e.At, uint64(e.Mode), uint64(e.Proc))
	}
	for tid := 0; tid < threads; tid++ {
		h.floats(t.Module(tid).SaveWeights())
	}
}
