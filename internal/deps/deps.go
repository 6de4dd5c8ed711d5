// Package deps implements RAW (read-after-write) data-communication
// tracking: extracting dependences from memory traces, grouping them into
// the N-long sequences the neural network classifies, synthesizing the
// negative examples used for offline training, and encoding sequences as
// neural-network input vectors.
//
// A RAW dependence S→L pairs the instruction address S of the store that
// last wrote a memory granule with the instruction address L of a load
// reading it. The dependence belongs to the processor executing L; each
// dependence is labelled inter- or intra-thread. Sequences are the last N
// dependences observed by one processor, oldest first.
//
//act:goleak
package deps

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Dep is one RAW dependence.
type Dep struct {
	S     uint64 // store instruction address (last writer)
	L     uint64 // load instruction address
	Inter bool   // writer executed on a different thread than the reader
}

// String renders the dependence in the paper's S→L notation.
func (d Dep) String() string {
	kind := "intra"
	if d.Inter {
		kind = "inter"
	}
	return fmt.Sprintf("%#x→%#x(%s)", d.S, d.L, kind)
}

// Sequence is an ordered group of N consecutive RAW dependences from one
// processor, oldest first, newest (the dependence under test) last.
type Sequence []Dep

// DepSize is the encoded size of one dependence: S and L, each
// little-endian, then a flags byte whose bit 0 is Inter. Sequence keys,
// the wire format, and checkpoints all use this one layout.
const DepSize = 17

// AppendDep appends d's DepSize-byte encoding to dst.
func AppendDep(dst []byte, d Dep) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, d.S)
	dst = binary.LittleEndian.AppendUint64(dst, d.L)
	if d.Inter {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// DecodeDep decodes the dependence AppendDep wrote at the front of b,
// ignoring flag bits other than Inter. A b shorter than DepSize decodes
// as the zero Dep, matching frame.Decoder, whose reads return nil once
// the input is exhausted.
func DecodeDep(b []byte) Dep {
	if len(b) < DepSize {
		return Dep{}
	}
	return Dep{S: binary.LittleEndian.Uint64(b), L: binary.LittleEndian.Uint64(b[8:]), Inter: b[16]&1 != 0}
}

// Key returns a canonical map key for the sequence.
func (s Sequence) Key() string {
	return string(s.AppendKey(make([]byte, 0, len(s)*DepSize)))
}

// AppendKey appends the sequence's Key bytes to dst. Because every
// dependence takes DepSize bytes, the key of s[:i] is the first
// DepSize*i bytes of the key of s.
func (s Sequence) AppendKey(dst []byte) []byte {
	for _, d := range s {
		dst = AppendDep(dst, d)
	}
	return dst
}

// FNV-1a constants (64-bit).
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvU64 folds the 8 little-endian bytes of x into h.
//
//act:noalloc
func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// Hash returns a fixed-size FNV-1a digest of the sequence over the same
// byte layout as Key, without allocating. Distinct sequences can share a
// hash, so it is an identity only where a collision is tolerated: shard
// routing, and the fleet collector's cross-run aggregate, whose
// persisted state stores hashes. Ranking, RCA, and the Correct Set
// compare Key bytes or the dependences themselves.
//
//act:noalloc
func (s Sequence) Hash() uint64 {
	h := fnvOffset
	for _, d := range s {
		h = fnvU64(h, d.S)
		h = fnvU64(h, d.L)
		if d.Inter {
			h = (h ^ 1) * fnvPrime
		} else {
			h *= fnvPrime
		}
	}
	return h
}

// Clone returns a copy of the sequence.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

func (s Sequence) String() string {
	out := "("
	for i, d := range s {
		if i > 0 {
			out += ", "
		}
		out += d.String()
	}
	return out + ")"
}

// writer identifies the thread and instruction of a store.
type writer struct {
	pc  uint64
	tid uint16
}

// lwTable is the last-writer index: an open-addressed hash table from
// address granule to writer. The extractor probes it twice per trace
// record (lookup on loads, upsert on stores), which made Go's generic
// map the single largest cost on the replay hot path; a flat
// Fibonacci-hashed, linear-probed table with no tombstones (the
// last-writer workload never deletes) cuts that to a multiply and, in
// the common case, one cache line. Granule 0 — a legal key — gets a
// dedicated slot so the keys array can use 0 as the empty marker.
type lwTable struct {
	keys    []uint64
	vals    []writer
	shift   uint // 64 - log2(len(keys))
	used    int
	zero    writer
	hasZero bool
}

// lwInitBits sizes a fresh table at 2^lwInitBits slots.
const lwInitBits = 10

func newLWTable() *lwTable {
	return &lwTable{keys: make([]uint64, 1<<lwInitBits), vals: make([]writer, 1<<lwInitBits), shift: 64 - lwInitBits}
}

//act:noalloc
func (t *lwTable) get(g uint64) (writer, bool) {
	if g == 0 {
		return t.zero, t.hasZero
	}
	keys := t.keys
	mask := uint64(len(keys) - 1)
	i := (g * 0x9e3779b97f4a7c15) >> t.shift
	for {
		k := keys[i&mask]
		if k == g {
			return t.vals[i&mask], true
		}
		if k == 0 {
			return writer{}, false
		}
		i++
	}
}

// put inserts or overwrites. The grow branch is the only allocation
// and runs O(log n) times over a table's life.
//
//act:noalloc
func (t *lwTable) put(g uint64, w writer) {
	if g == 0 {
		t.zero, t.hasZero = w, true
		return
	}
	keys := t.keys
	mask := uint64(len(keys) - 1)
	i := (g * 0x9e3779b97f4a7c15) >> t.shift
	for {
		k := keys[i&mask]
		if k == g {
			t.vals[i&mask] = w
			return
		}
		if k == 0 {
			keys[i&mask] = g
			t.vals[i&mask] = w
			t.used++
			if t.used*4 > len(keys)*3 {
				t.grow() //act:alloc-ok amortized table growth
			}
			return
		}
		i++
	}
}

func (t *lwTable) grow() {
	old, oldVals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(old))
	t.vals = make([]writer, 2*len(old))
	t.shift--
	mask := uint64(len(t.keys) - 1)
	for j, k := range old {
		if k == 0 {
			continue
		}
		i := (k * 0x9e3779b97f4a7c15) >> t.shift
		for t.keys[i&mask] != 0 {
			i++
		}
		t.keys[i&mask] = k
		t.vals[i&mask] = oldVals[j]
	}
}

func (t *lwTable) reset() {
	clear(t.keys)
	t.used = 0
	t.hasZero = false
}

// ringWin is one thread's fixed-capacity dependence window, kept as a
// ring so the steady-state hot path never reallocates or shifts.
type ringWin struct {
	buf  []Dep // capacity n, allocated once
	head int   // index of the oldest entry
	cnt  int   // live entries, <= len(buf)
}

//act:noalloc
func (w *ringWin) push(d Dep) {
	n := len(w.buf)
	if w.cnt < n {
		w.buf[(w.head+w.cnt)%n] = d
		w.cnt++
		return
	}
	w.buf[w.head] = d
	w.head = (w.head + 1) % n
}

// fill writes the window into seq (len == cap of the ring), oldest
// first, front-padded with zero dependences while the window is filling.
//
//act:noalloc
func (w *ringWin) fill(seq Sequence) {
	n := len(w.buf)
	pad := n - w.cnt
	for i := range seq[:pad] {
		seq[i] = Dep{}
	}
	for i := 0; i < w.cnt; i++ {
		seq[pad+i] = w.buf[(w.head+i)%n]
	}
}

// Extractor turns an ordered stream of memory records into RAW
// dependences and sequences. Granularity controls the address granule at
// which the last writer is tracked: the word size models the paper's
// precise per-word extension, a cache-line size models the cheap
// line-granularity mode whose false sharing the evaluation measures.
type Extractor struct {
	n           int
	granularity uint64
	filterStack bool
	trackPrev   bool

	// last is the open-addressed last-writer table (see lwTable); prev
	// stays a plain map because before-last tracking is an offline
	// training feature that never touches the replay hot path.
	last *lwTable
	prev map[uint64]writer
	wins []*ringWin // per-thread windows, indexed by tid

	// OnDep, if set, observes every formed dependence before windowing.
	OnDep func(tid uint16, d Dep)
	// OnSequence observes every full-length positive sequence.
	OnSequence func(tid uint16, s Sequence)
	// OnNegative observes every synthesized invalid sequence (offline
	// training only; requires TrackPrev).
	OnNegative func(tid uint16, s Sequence)
}

// ExtractorConfig configures an Extractor.
type ExtractorConfig struct {
	N           int    // sequence length; must be >= 1
	Granularity uint64 // bytes per last-writer granule; 0 means 8 (word)
	FilterStack bool   // drop stack-addressed records
	TrackPrev   bool   // keep before-last writers to form negative examples
}

// NewExtractor returns an extractor for the given configuration.
func NewExtractor(cfg ExtractorConfig) *Extractor {
	if cfg.N < 1 {
		panic(fmt.Sprintf("deps: invalid sequence length %d", cfg.N))
	}
	g := cfg.Granularity
	if g == 0 {
		g = 8
	}
	if g&(g-1) != 0 {
		panic(fmt.Sprintf("deps: granularity %d is not a power of two", g))
	}
	e := &Extractor{
		n:           cfg.N,
		granularity: g,
		filterStack: cfg.FilterStack,
		trackPrev:   cfg.TrackPrev,
		last:        newLWTable(),
	}
	if cfg.TrackPrev {
		e.prev = make(map[uint64]writer)
	}
	return e
}

// N returns the configured sequence length.
func (e *Extractor) N() int { return e.n }

// Reset clears all last-writer and window state (e.g. between traces)
// while keeping the configuration and callbacks. The table and window
// rings keep their memory, so an extractor reused across traces stops
// allocating once it has seen its largest one.
func (e *Extractor) Reset() {
	e.last.reset()
	if e.prev != nil {
		clear(e.prev)
	}
	for _, w := range e.wins {
		if w != nil {
			w.head, w.cnt = 0, 0
		}
	}
}

// win returns (creating on first use) tid's window ring.
func (e *Extractor) win(tid uint16) *ringWin {
	i := int(tid)
	if i >= len(e.wins) {
		grown := make([]*ringWin, i+1)
		copy(grown, e.wins)
		e.wins = grown
	}
	w := e.wins[i]
	if w == nil {
		w = &ringWin{buf: make([]Dep, e.n)}
		e.wins[i] = w
	}
	return w
}

// granule maps an address to its tracking granule.
//
//act:noalloc
func (e *Extractor) granule(addr uint64) uint64 { return addr &^ (e.granularity - 1) }

// Store records a store by tid at instruction pc to addr.
func (e *Extractor) Store(tid uint16, pc, addr uint64, stack bool) {
	if e.filterStack && stack {
		return
	}
	g := e.granule(addr)
	if e.trackPrev {
		if w, ok := e.last.get(g); ok {
			e.prev[g] = w
		}
	}
	e.last.put(g, writer{pc: pc, tid: tid})
}

// Load records a load by tid at instruction pc from addr, forming a
// dependence if a last writer is known. It returns the dependence and
// whether one was formed.
func (e *Extractor) Load(tid uint16, pc, addr uint64, stack bool) (Dep, bool) {
	if e.filterStack && stack {
		return Dep{}, false
	}
	g := e.granule(addr)
	w, ok := e.last.get(g)
	if !ok {
		return Dep{}, false
	}
	d := Dep{S: w.pc, L: pc, Inter: w.tid != tid}
	if e.OnDep != nil {
		e.OnDep(tid, d)
	}
	win := e.win(tid)
	win.push(d)
	// A window shorter than N (execution start, or right after a thread's
	// first dependences) is padded at the front with zero dependences, so
	// even a processor's very first dependence is classified — a failure
	// in early execution must still reach the Debug Buffer.
	//
	// The padded sequence is materialized only for the offline callbacks:
	// the online replay path consumes OnDep alone (each module keeps its
	// own Input Generator Buffer), so building it per load would be a
	// wasted allocation on the hot path. Callbacks receive a fresh slice
	// they may retain.
	if e.OnSequence != nil || (e.trackPrev && e.OnNegative != nil) {
		seq := make(Sequence, e.n)
		win.fill(seq)
		if e.OnSequence != nil {
			e.OnSequence(tid, seq)
		}
		if e.trackPrev && e.OnNegative != nil {
			// The store before the last store to the same granule, when
			// it is a different instruction, yields an invalid variant
			// of this sequence: same history, wrong final writer.
			if pw, ok := e.prev[g]; ok && pw.pc != w.pc {
				neg := seq.Clone()
				neg[len(neg)-1] = Dep{S: pw.pc, L: pc, Inter: pw.tid != tid}
				e.OnNegative(tid, neg)
			}
		}
	}
	return d, true
}

// LastWriter is one last-writer table entry in exported form.
type LastWriter struct {
	Granule uint64
	StorePC uint64
	Tid     uint16
}

// WindowState is one thread's current dependence window in exported
// form, oldest first, at most N entries.
type WindowState struct {
	Tid    uint16
	Window []Dep
}

// ExtractorState is the extractor's complete resumable state: which
// writer last touched every granule, and each thread's partial
// dependence window. It is what a replay checkpoint must carry so that
// dependences formed after a resume are identical to an uninterrupted
// run. The before-last (TrackPrev) map is deliberately not part of it:
// it is an offline-training feature that replay never enables.
type ExtractorState struct {
	Granularity uint64
	Writers     []LastWriter  // sorted ascending by granule
	Windows     []WindowState // sorted ascending by tid
}

// ExportState captures the extractor's state deterministically: writers
// sorted by granule, windows by thread id, so identical extractor states
// export identical values (and, downstream, identical checkpoint bytes).
func (e *Extractor) ExportState() ExtractorState {
	st := ExtractorState{Granularity: e.granularity}
	if e.last.hasZero {
		st.Writers = append(st.Writers, LastWriter{Granule: 0, StorePC: e.last.zero.pc, Tid: e.last.zero.tid})
	}
	for i, g := range e.last.keys {
		if g != 0 {
			st.Writers = append(st.Writers, LastWriter{Granule: g, StorePC: e.last.vals[i].pc, Tid: e.last.vals[i].tid})
		}
	}
	sort.Slice(st.Writers, func(i, j int) bool { return st.Writers[i].Granule < st.Writers[j].Granule })
	for tid, w := range e.wins {
		if w == nil || w.cnt == 0 {
			continue
		}
		ws := WindowState{Tid: uint16(tid), Window: make([]Dep, w.cnt)}
		for i := 0; i < w.cnt; i++ {
			ws.Window[i] = w.buf[(w.head+i)%len(w.buf)]
		}
		st.Windows = append(st.Windows, ws)
	}
	return st
}

// RestoreState resets the extractor and loads a previously exported
// state. It fails when the state was captured at a different granularity
// or a window exceeds the configured sequence length — resuming under a
// changed configuration would silently form different dependences.
func (e *Extractor) RestoreState(st ExtractorState) error {
	if st.Granularity != e.granularity {
		return fmt.Errorf("deps: checkpoint granularity %d, extractor has %d", st.Granularity, e.granularity)
	}
	e.Reset()
	for _, w := range st.Writers {
		e.last.put(w.Granule, writer{pc: w.StorePC, tid: w.Tid})
	}
	for _, ws := range st.Windows {
		if len(ws.Window) > e.n {
			return fmt.Errorf("deps: checkpoint window of %d deps for tid %d, extractor N=%d", len(ws.Window), ws.Tid, e.n)
		}
		win := e.win(ws.Tid)
		for _, d := range ws.Window {
			win.push(d)
		}
	}
	return nil
}

// Window returns a copy of tid's current dependence window (most recent
// last). The window may be shorter than N early in an execution.
func (e *Extractor) Window(tid uint16) Sequence {
	if int(tid) >= len(e.wins) || e.wins[tid] == nil {
		return make(Sequence, 0)
	}
	w := e.wins[tid]
	out := make(Sequence, w.cnt)
	for i := 0; i < w.cnt; i++ {
		out[i] = w.buf[(w.head+i)%len(w.buf)]
	}
	return out
}
