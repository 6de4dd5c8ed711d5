// Replay checkpoint state: export, restore, and the binary codec for
// the ACTK sections a mid-trace checkpoint carries (see
// internal/pipeline/checkpoint.go for the file framing; the section
// payloads use internal/frame's encoder and decoder).
//
// A checkpoint captures everything that determines the remainder of a
// replay: the record cursor, the extractor's last-writer table and
// per-thread windows, and every module's complete adaptive state —
// weights, breaker snapshot, mode, generation, IGB, Debug Buffer (with
// trajectories), trajectory ring, breaker counters, and Stats. Restored
// into a fresh Tracker, replaying the remaining records produces
// observables byte-identical to an uninterrupted run.
//
// Deliberately NOT captured, because they are pure functions of
// (weight generation, window) and rebuild on demand with identical
// values: the compiled quantized kernel and the window memo. Everything
// a ranked report or RCA verdict is derived from survives exactly.
// Stats.CacheHits/CacheMisses keep their slots in the module section
// but are always zero, and restore ignores the decoded values.
//
// The header section pins the identity of the run: trace fingerprint,
// seed, and a configuration fingerprint. Resume refuses (or, in lenient
// mode, restarts from scratch) when any of them differ — resuming under
// a changed configuration would silently diverge instead of failing.
package core

import (
	"fmt"
	"math"

	"act/internal/deps"
	"act/internal/frame"
	"act/internal/pipeline"
	"act/internal/trace"
)

// Checkpoint section kinds owned by core (1..63; see pipeline docs).
const (
	ckptKindHeader    = 1
	ckptKindExtractor = 2
	ckptKindModule    = 3
)

// ckptCodecVersion versions the section payloads, independent of the
// file framing version.
const ckptCodecVersion = 1

// ModuleState is one module's complete resumable state in exported
// form. Ring buffers are exported as their logical content, oldest
// first; restore re-bases them at index zero, which preserves every
// observable (ring position is not one).
type ModuleState struct {
	Tid      int
	Mode     Mode
	Gen      uint64
	Weights  []float64
	Snap     []float64 // breaker's last-known-good weights; nil if never taken
	IGB      []deps.Dep
	Debug    []DebugEntry
	Traj     []float64
	Invalid  int
	Window   int
	SatWind  int
	BadWind  int
	LastRate float64
	Stats    Stats
}

// TrackerState is a whole deployment's resumable state.
type TrackerState struct {
	Extractor deps.ExtractorState
	Modules   []ModuleState // sorted ascending by Tid
}

// exportState captures the module. Cold path: runs once per module per
// checkpoint.
func (m *Module) exportState(tid int) ModuleState {
	st := ModuleState{
		Tid:      tid,
		Mode:     m.mode,
		Gen:      m.gen.Load(),
		Weights:  m.net.Flatten(nil),
		IGB:      make([]deps.Dep, 0, m.igcnt),
		Debug:    m.DebugBuffer(),
		Traj:     m.trajSlice(),
		Invalid:  m.invalid,
		Window:   m.window,
		SatWind:  m.satWindow,
		BadWind:  m.badWindows,
		LastRate: m.lastRate,
		Stats:    m.stats.load(),
	}
	if m.snap != nil {
		st.Snap = append([]float64(nil), m.snap...)
	}
	for i := 0; i < m.igcnt; i++ {
		st.IGB = append(st.IGB, m.igb[(m.ighead+i)%m.cfg.IGBSize])
	}
	return st
}

// restoreState loads an exported state into a freshly created module.
// Counts are assumed validated by the decoder; the weight load is the
// one remaining failure mode (topology mismatch).
func (m *Module) restoreState(st *ModuleState) error {
	if err := m.net.LoadFlat(st.Weights); err != nil {
		return fmt.Errorf("core: module %d: %w", st.Tid, err)
	}
	m.mode = st.Mode
	m.gen.Store(st.Gen)
	if st.Snap == nil {
		m.snap = nil
	} else {
		m.snap = append(m.snap[:0], st.Snap...)
	}
	copy(m.igb, st.IGB)
	m.ighead, m.igcnt = 0, len(st.IGB)
	m.debug = append(m.debug[:0], st.Debug...)
	m.dhead, m.dfull = 0, len(st.Debug) == m.cfg.DebugBufSize
	for i, v := range st.Traj {
		m.traj[i] = v
	}
	m.thead, m.tcnt = 0, len(st.Traj)
	m.invalid = st.Invalid
	m.window = st.Window
	m.satWindow = st.SatWind
	m.badWindows = st.BadWind
	m.lastRate = st.LastRate
	m.stats.store(st.Stats)
	// Derived state (compiled kernel, window memo) is left to rebuild:
	// generation staleness checks already orphan it, and rebuilt values
	// are bit-identical by the purity argument above.
	return nil
}

// store writes the counters back — the restore-side twin of load.
func (s *moduleStats) store(v Stats) {
	s.deps.Store(v.Deps)
	s.sequences.Store(v.Sequences)
	s.predictedInvalid.Store(v.PredictedInvalid)
	s.updates.Store(v.Updates)
	s.modeSwitches.Store(v.ModeSwitches)
	s.trainingDeps.Store(v.TrainingDeps)
	s.snapshots.Store(v.Snapshots)
	s.recoveries.Store(v.Recoveries)
}

// ExportState captures the whole deployment, modules in ascending
// thread order (deterministic bytes downstream). The tracker must be
// quiescent: sequential callers are by construction, parallel replay
// checkpoints only after a fanout barrier.
func (t *Tracker) ExportState() TrackerState {
	st := TrackerState{Extractor: t.ext.ExportState()}
	for tid := 0; tid < len(t.dense); tid++ {
		if m := t.dense[tid]; m != nil {
			st.Modules = append(st.Modules, m.exportState(tid))
		}
	}
	return st
}

// fnv64 constants (shared layout with deps.Sequence.Hash).
const (
	ckptFNVOffset uint64 = 14695981039346656037
	ckptFNVPrime  uint64 = 1099511628211
)

func ckptMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= ckptFNVPrime
		x >>= 8
	}
	return h
}

// traceIdentity fingerprints a trace in O(1): provenance, length, and
// three sampled records. Hashing every record would cost a measurable
// slice of the checkpoint budget on the traces checkpointing exists
// for; three samples plus length and seed already separate any two
// distinct checked-in workload executions.
func traceIdentity(tr *trace.Trace) uint64 {
	h := ckptFNVOffset
	for i := 0; i < len(tr.Program); i++ {
		h = (h ^ uint64(tr.Program[i])) * ckptFNVPrime
	}
	h = ckptMix(h, uint64(tr.Seed))
	h = ckptMix(h, tr.Steps)
	h = ckptMix(h, uint64(len(tr.Records)))
	if n := len(tr.Records); n > 0 {
		for _, i := range [3]int{0, n / 2, n - 1} {
			r := tr.Records[i]
			h = ckptMix(h, r.Seq)
			h = ckptMix(h, r.PC)
			h = ckptMix(h, r.Addr)
			x := uint64(r.Tid)
			if r.Store {
				x |= 1 << 16
			}
			if r.Stack {
				x |= 1 << 17
			}
			h = ckptMix(h, x)
		}
	}
	return h
}

// cfgFingerprint hashes every configuration knob that influences replay
// observables. Two deployments with equal fingerprints, seeds, and
// traces replay identically; resume refuses mismatches. The sigmoid
// table enters by its shape (range and entry count, which determine
// every entry), the encoder by its output on encoderProbe: a function
// has no identity to hash, but two encoders that disagree there cannot
// be the same classifier input.
func (t *Tracker) cfgFingerprint() uint64 {
	c := t.cfg
	h := ckptFNVOffset
	for _, x := range [...]uint64{
		uint64(c.N), uint64(c.IGBSize), uint64(c.DebugBufSize),
		uint64(c.CheckInterval), math.Float64bits(c.LearningRate),
		math.Float64bits(c.MispredThreshold), uint64(int64(c.RecoveryWindows)),
		math.Float64bits(c.SaturationEps), b2u64(c.Quantized),
		t.tcfg.Granularity, b2u64(t.tcfg.FilterStack),
		math.Float64bits(c.LUT.Range), uint64(c.LUT.Entries),
	} {
		h = ckptMix(h, x)
	}
	x := c.Encoder(encoderProbe(c.N), nil)
	h = ckptMix(h, uint64(len(x)))
	for _, v := range x {
		h = ckptMix(h, math.Float64bits(v))
	}
	return h
}

// encoderProbe is the fixed n-dependence sequence cfgFingerprint
// encodes: distinct store and load sites in every position, both
// labels.
func encoderProbe(n int) deps.Sequence {
	s := make(deps.Sequence, n)
	for i := range s {
		k := uint64(i + 1)
		s[i] = deps.Dep{S: 0x400000 + 0x1f3*k, L: 0x500000 + 0x2e7*k, Inter: i%2 == 0}
	}
	return s
}

func b2u64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- binary codec ---------------------------------------------------

func appendDep(w *frame.Encoder, d deps.Dep) { *w = deps.AppendDep(*w, d) }

func readDep(d *frame.Decoder) deps.Dep { return deps.DecodeDep(d.Bytes(deps.DepSize)) }

// finishSection returns a section decoder's failure, trailing bytes
// included, naming the section.
func finishSection(d *frame.Decoder, what string) error {
	if err := d.Finish(); err != nil {
		return fmt.Errorf("core: checkpoint %s: %w", what, err)
	}
	return nil
}

// CheckpointHeader is the decoded header section: the identity of the
// run a checkpoint belongs to and the record cursor it was taken at.
type CheckpointHeader struct {
	Cursor  uint64
	Records uint64
	TraceID uint64
	Seed    int64
	CfgFP   uint64
	Program string
}

func (t *Tracker) header(tr *trace.Trace, cursor int) CheckpointHeader {
	return CheckpointHeader{
		Cursor:  uint64(cursor),
		Records: uint64(len(tr.Records)),
		TraceID: traceIdentity(tr),
		Seed:    t.seed,
		CfgFP:   t.cfgFingerprint(),
		Program: tr.Program,
	}
}

func encodeHeader(h CheckpointHeader) []byte {
	var w frame.Encoder
	w.U16(ckptCodecVersion)
	w.U64(h.Cursor)
	w.U64(h.Records)
	w.U64(h.TraceID)
	w.U64(uint64(h.Seed))
	w.U64(h.CfgFP)
	w.U16(uint16(len(h.Program)))
	return append(w, h.Program...)
}

func decodeHeader(data []byte) (CheckpointHeader, error) {
	d := frame.NewDecoder(data)
	var h CheckpointHeader
	if v := d.U16(); d.Err() == nil && v != ckptCodecVersion {
		return h, fmt.Errorf("core: checkpoint codec version %d, want %d", v, ckptCodecVersion)
	}
	h.Cursor = d.U64()
	h.Records = d.U64()
	h.TraceID = d.U64()
	h.Seed = int64(d.U64())
	h.CfgFP = d.U64()
	h.Program = string(d.Bytes(int(d.U16())))
	return h, finishSection(&d, "header")
}

func encodeExtractor(st deps.ExtractorState) []byte {
	var w frame.Encoder
	w.U64(st.Granularity)
	w.U32(uint32(len(st.Windows)))
	for _, win := range st.Windows {
		w.U16(win.Tid)
		w.U8(byte(len(win.Window)))
		for _, dep := range win.Window {
			appendDep(&w, dep)
		}
	}
	w.U32(uint32(len(st.Writers)))
	for _, lw := range st.Writers {
		w.U64(lw.Granule)
		w.U64(lw.StorePC)
		w.U16(lw.Tid)
	}
	return w
}

func decodeExtractor(data []byte) (deps.ExtractorState, error) {
	d := frame.NewDecoder(data)
	st := deps.ExtractorState{Granularity: d.U64()}
	nw := d.Count(3) // tid + len, then per-dep bytes
	for i := 0; i < nw && d.Err() == nil; i++ {
		w := deps.WindowState{Tid: d.U16()}
		nd := int(d.U8())
		for j := 0; j < nd && d.Err() == nil; j++ {
			w.Window = append(w.Window, readDep(&d))
		}
		st.Windows = append(st.Windows, w)
	}
	nl := d.Count(18)
	for i := 0; i < nl && d.Err() == nil; i++ {
		st.Writers = append(st.Writers, deps.LastWriter{Granule: d.U64(), StorePC: d.U64(), Tid: d.U16()})
	}
	return st, finishSection(&d, "extractor")
}

// encodeModule serializes one module state. Debug entries carry the
// full RCA evidence — including the trajectory the fleet wire format
// deliberately drops — because a resumed run's reports must match the
// uninterrupted run byte-for-byte.
func encodeModule(st *ModuleState) []byte {
	var w frame.Encoder
	w.U32(uint32(st.Tid))
	w.U8(byte(st.Mode))
	w.U64(st.Gen)
	w.F64(st.LastRate)
	w.U64(uint64(int64(st.Invalid)))
	w.U64(uint64(int64(st.Window)))
	w.U64(uint64(int64(st.SatWind)))
	w.U64(uint64(int64(st.BadWind)))
	for _, v := range [...]uint64{st.Stats.Deps, st.Stats.Sequences,
		st.Stats.PredictedInvalid, st.Stats.Updates, st.Stats.ModeSwitches,
		st.Stats.TrainingDeps, st.Stats.Snapshots, st.Stats.Recoveries,
		st.Stats.CacheHits, st.Stats.CacheMisses} {
		w.U64(v)
	}
	w.U32(uint32(len(st.Weights)))
	for _, v := range st.Weights {
		w.F64(v)
	}
	if st.Snap == nil {
		w.U8(0)
	} else {
		w.U8(1)
		w.U32(uint32(len(st.Snap)))
		for _, v := range st.Snap {
			w.F64(v)
		}
	}
	w.U32(uint32(len(st.IGB)))
	for _, dep := range st.IGB {
		appendDep(&w, dep)
	}
	w.U8(byte(len(st.Traj)))
	for _, v := range st.Traj {
		w.F64(v)
	}
	w.U32(uint32(len(st.Debug)))
	for _, e := range st.Debug {
		w.U16(e.Proc)
		w.U64(e.At)
		w.F64(e.Output)
		w.U8(byte(e.Mode))
		w.U8(byte(len(e.Seq)))
		for _, dep := range e.Seq {
			appendDep(&w, dep)
		}
		w.U8(byte(len(e.Traj)))
		for _, v := range e.Traj {
			w.F64(v)
		}
	}
	return w
}

func decodeModule(data []byte) (ModuleState, error) {
	d := frame.NewDecoder(data)
	var st ModuleState
	st.Tid = int(d.U32())
	st.Mode = Mode(d.U8())
	st.Gen = d.U64()
	st.LastRate = d.F64()
	st.Invalid = int(int64(d.U64()))
	st.Window = int(int64(d.U64()))
	st.SatWind = int(int64(d.U64()))
	st.BadWind = int(int64(d.U64()))
	var sv [10]uint64
	for i := range sv {
		sv[i] = d.U64()
	}
	st.Stats = Stats{Deps: sv[0], Sequences: sv[1], PredictedInvalid: sv[2],
		Updates: sv[3], ModeSwitches: sv[4], TrainingDeps: sv[5],
		Snapshots: sv[6], Recoveries: sv[7], CacheHits: sv[8], CacheMisses: sv[9]}
	nw := d.Count(8)
	for i := 0; i < nw && d.Err() == nil; i++ {
		st.Weights = append(st.Weights, d.F64())
	}
	if d.U8() != 0 {
		ns := d.Count(8)
		st.Snap = make([]float64, 0, ns)
		for i := 0; i < ns && d.Err() == nil; i++ {
			st.Snap = append(st.Snap, d.F64())
		}
	}
	ni := d.Count(17)
	for i := 0; i < ni && d.Err() == nil; i++ {
		st.IGB = append(st.IGB, readDep(&d))
	}
	nt := int(d.U8())
	if nt > TrajDepth {
		d.Fail(fmt.Errorf("trajectory of %d samples exceeds depth %d", nt, TrajDepth))
	}
	for i := 0; i < nt && d.Err() == nil; i++ {
		st.Traj = append(st.Traj, d.F64())
	}
	nd := d.Count(1)
	for i := 0; i < nd && d.Err() == nil; i++ {
		var e DebugEntry
		e.Proc = d.U16()
		e.At = d.U64()
		e.Output = d.F64()
		e.Mode = Mode(d.U8())
		ns := int(d.U8())
		for j := 0; j < ns && d.Err() == nil; j++ {
			e.Seq = append(e.Seq, readDep(&d))
		}
		et := int(d.U8())
		if et > TrajDepth {
			d.Fail(fmt.Errorf("debug entry %d trajectory of %d samples", i, et))
			break
		}
		for j := 0; j < et && d.Err() == nil; j++ {
			e.Traj = append(e.Traj, d.F64())
		}
		st.Debug = append(st.Debug, e)
	}
	return st, finishSection(&d, "module")
}

// EncodeCheckpoint serializes the tracker's complete state as an ACTK
// checkpoint image: header (trace and configuration identity, cursor),
// extractor state, one section per module, then any extra sections the
// caller owns (stage results use kinds >= 64). The tracker must be
// quiescent. Identical tracker states encode identical bytes.
func (t *Tracker) EncodeCheckpoint(tr *trace.Trace, cursor int, extra ...pipeline.Section) ([]byte, error) {
	if cursor < 0 || cursor > len(tr.Records) {
		return nil, fmt.Errorf("core: checkpoint cursor %d outside trace of %d records", cursor, len(tr.Records))
	}
	for _, s := range extra {
		if s.Kind < 64 || s.Kind == 0xFF {
			return nil, fmt.Errorf("core: extra checkpoint section kind %d collides with reserved range", s.Kind)
		}
	}
	st := t.ExportState()
	sections := make([]pipeline.Section, 0, 2+len(st.Modules)+len(extra))
	sections = append(sections,
		pipeline.Section{Kind: ckptKindHeader, Data: encodeHeader(t.header(tr, cursor))},
		pipeline.Section{Kind: ckptKindExtractor, Data: encodeExtractor(st.Extractor)})
	for i := range st.Modules {
		sections = append(sections, pipeline.Section{Kind: ckptKindModule, Data: encodeModule(&st.Modules[i])})
	}
	sections = append(sections, extra...)
	return pipeline.AppendCheckpoint(nil, sections), nil
}

// DecodeCheckpoint parses a checkpoint image into its state (without
// touching any tracker) plus the caller-owned extra sections. It never
// panics on arbitrary input (FuzzLoadCheckpoint pins this); every
// structural or semantic defect is an error.
func DecodeCheckpoint(data []byte) (CheckpointHeader, *TrackerState, []pipeline.Section, error) {
	var hdr CheckpointHeader
	secs, err := pipeline.ParseCheckpoint(data)
	if err != nil {
		return hdr, nil, nil, err
	}
	st := &TrackerState{}
	var extra []pipeline.Section
	seenHeader, seenExt := false, false
	for _, s := range secs {
		switch s.Kind {
		case ckptKindHeader:
			if seenHeader {
				return hdr, nil, nil, fmt.Errorf("core: checkpoint with duplicate header")
			}
			seenHeader = true
			if hdr, err = decodeHeader(s.Data); err != nil {
				return hdr, nil, nil, err
			}
		case ckptKindExtractor:
			if seenExt {
				return hdr, nil, nil, fmt.Errorf("core: checkpoint with duplicate extractor state")
			}
			seenExt = true
			if st.Extractor, err = decodeExtractor(s.Data); err != nil {
				return hdr, nil, nil, err
			}
		case ckptKindModule:
			ms, err := decodeModule(s.Data)
			if err != nil {
				return hdr, nil, nil, err
			}
			if n := len(st.Modules); n > 0 && st.Modules[n-1].Tid >= ms.Tid {
				return hdr, nil, nil, fmt.Errorf("core: checkpoint modules out of order (%d then %d)", st.Modules[n-1].Tid, ms.Tid)
			}
			if ms.Tid > MaxTid {
				return hdr, nil, nil, fmt.Errorf("core: checkpoint module tid %d outside [0, %d]", ms.Tid, MaxTid)
			}
			st.Modules = append(st.Modules, ms)
		default:
			extra = append(extra, s)
		}
	}
	if !seenHeader || !seenExt {
		return hdr, nil, nil, fmt.Errorf("core: checkpoint missing header or extractor section")
	}
	if hdr.Cursor > hdr.Records {
		return hdr, nil, nil, fmt.Errorf("core: checkpoint cursor %d beyond %d records", hdr.Cursor, hdr.Records)
	}
	return hdr, st, extra, nil
}

// verifyCheckpoint checks a decoded checkpoint against this tracker and
// trace: same trace identity, same seed, same configuration
// fingerprint, and per-module limits the restore relies on.
func (t *Tracker) verifyCheckpoint(hdr CheckpointHeader, st *TrackerState, tr *trace.Trace) error {
	switch {
	case hdr.Program != tr.Program:
		return fmt.Errorf("core: checkpoint for program %q, replaying %q", hdr.Program, tr.Program)
	case hdr.Records != uint64(len(tr.Records)) || hdr.TraceID != traceIdentity(tr):
		return fmt.Errorf("core: checkpoint is for a different trace (fingerprint mismatch)")
	case hdr.Seed != t.seed:
		return fmt.Errorf("core: checkpoint seed %d, tracker seed %d", hdr.Seed, t.seed)
	case hdr.CfgFP != t.cfgFingerprint():
		return fmt.Errorf("core: checkpoint configuration fingerprint mismatch")
	}
	want := t.binary.NHidden*(t.binary.NIn+1) + t.binary.NHidden + 1
	for i := range st.Modules {
		ms := &st.Modules[i]
		switch {
		case len(ms.Weights) != want:
			return fmt.Errorf("core: module %d checkpoint has %d weights, topology wants %d", ms.Tid, len(ms.Weights), want)
		case ms.Snap != nil && len(ms.Snap) != want:
			return fmt.Errorf("core: module %d snapshot has %d weights, topology wants %d", ms.Tid, len(ms.Snap), want)
		case len(ms.IGB) > t.cfg.IGBSize:
			return fmt.Errorf("core: module %d checkpoint IGB of %d entries, configured size %d", ms.Tid, len(ms.IGB), t.cfg.IGBSize)
		case len(ms.Debug) > t.cfg.DebugBufSize:
			return fmt.Errorf("core: module %d checkpoint Debug Buffer of %d entries, configured size %d", ms.Tid, len(ms.Debug), t.cfg.DebugBufSize)
		case ms.Mode != Testing && ms.Mode != Training:
			return fmt.Errorf("core: module %d checkpoint mode %d", ms.Tid, int(ms.Mode))
		}
	}
	return nil
}

// RestoreCheckpoint validates a checkpoint image against this tracker
// and trace and loads it, returning the record cursor to resume from
// and any caller-owned extra sections. The tracker must be fresh (no
// modules deployed yet); on any validation error it is left untouched.
func (t *Tracker) RestoreCheckpoint(data []byte, tr *trace.Trace) (cursor int, extra []pipeline.Section, err error) {
	if t.Modules() != 0 {
		return 0, nil, fmt.Errorf("core: cannot restore a checkpoint into a tracker with %d deployed modules", t.Modules())
	}
	hdr, st, extra, err := DecodeCheckpoint(data)
	if err != nil {
		return 0, nil, err
	}
	if err := t.verifyCheckpoint(hdr, st, tr); err != nil {
		return 0, nil, err
	}
	if err := t.ext.RestoreState(st.Extractor); err != nil {
		return 0, nil, err
	}
	for i := range st.Modules {
		ms := &st.Modules[i]
		if err := t.moduleAt(ms.Tid).restoreState(ms); err != nil {
			return 0, nil, err // topology verified above; unreachable
		}
	}
	return int(hdr.Cursor), extra, nil
}
