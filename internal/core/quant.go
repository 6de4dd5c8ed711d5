// Fixed-point batched classification (Config.Quantized).
//
// The float path classifies one window at a time: encode the padded
// sequence, run nn.Network.Forward, update the counters. The quantized
// path compiles the live weights to an nn.QNetwork — the same Q-format
// registers nn.Quantize models, executed in int32 — and classifies runs
// of testing-mode dependences in chunks: every window is probed in the
// generation-stamped window memo (production streams repeat a small set
// of hot windows, so most probes hit), and only the missed windows are
// encoded and classified, all of them with one nn.ForwardWindows call.
// The chunk itself is never staged: windows past the first N-1 lie
// entirely inside the caller's batch — in parallel replay, the fan-out
// buffer delivered to the worker — and are sliced from it in place;
// only the history/batch boundary is materialized (see quantWindow).
//
// Staleness follows the module's weight generation: a compiled kernel
// is valid for exactly one value of Module.gen, so every online
// training step, mode switch, breaker recovery, rollback, LoadWeights,
// and InvalidateVerdicts orphans it; the next testing-mode
// classification recompiles (~a hundred int16 stores). When the weight
// state cannot compile — non-finite registers after an SEU — the module
// remembers the failure for that generation and classifies in float, so
// the NaN-divergence breaker still sees the poisoned outputs it needs.
//
// The batch boundary is invisible: OnDeps commits per-dependence effects
// (IGB, trajectory, Debug Buffer, Invalid Counter, rate windows) in
// stream order, with the same values per-dependence OnDep would
// produce, and re-checks mode and generation at every window
// boundary so a mid-batch mode switch or recovery falls back to the
// per-dependence path for the remainder. Stats counters are accumulated
// locally and flushed once per chunk — a concurrent metrics scrape may
// lag by at most quantChunk dependences, within the monitoring contract
// (exact counters, cross-counter consistency at quiescence).

package core

import (
	"math/bits"

	"act/internal/deps"
	"act/internal/nn"
)

// quantChunk caps how many dependences one kernel call classifies. It
// bounds the staging slabs and the window between mode/generation
// re-checks; deps.Fanout's default batch is the same size.
const quantChunk = 512

// qmemoBits sizes the window memo at 2^qmemoBits direct-mapped buckets.
// Production dependence streams are dominated by a small set of hot
// windows (the radix bench trace has 13 distinct dependences), so even
// a small table approaches a 100% hit rate; a collision just overwrites
// the bucket and costs one recomputation.
const qmemoBits = 10

// qmemo memoizes the batched kernel: bucket b holds one full window
// (n = N dependences, compared exactly on every probe — never matched
// by hash alone) and the verdict the kernel produced for it, stamped
// with the weight generation + 1 it was computed under (stamp 0 means
// empty). A verdict is a pure function of (generation, window), so
// serving a stamped, key-verified entry is bit-identical to re-running
// the kernel; bumping the generation invalidates every entry at once
// because generations are never reused. It is the module's only verdict
// memo: internal, exact-keyed, and allocation-free — it exists to skip
// encode+inference, not to be observable, so hits leave no trace in
// Stats.
type qmemo struct {
	stamp []uint64
	keys  []deps.Dep
	vals  []float64
	n     int
}

// qwindowEqual reports whether the memoized key a equals window b.
//
//act:noalloc
func qwindowEqual(a, b []deps.Dep) bool {
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// qdepHash mixes one dependence into a 64-bit hash.
//
//act:noalloc
func qdepHash(d deps.Dep) uint64 {
	h := d.S*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(d.L*0xbf58476d1ce4e5b9, 31)
	if d.Inter {
		h ^= 0x94d049bb133111eb
	}
	return h
}

// classify runs one testing-mode inference over the encoded window in
// xbuf: fixed-point when enabled and compilable, float otherwise. The
// scalar and batched quantized paths share nn.QNetwork's kernel, so
// their outputs are bit-identical.
//
//act:noalloc
func (m *Module) classify() float64 {
	if m.cfg.Quantized && m.quantReady() {
		return m.qnet.Forward(m.xbuf)
	}
	return m.net.Forward(m.xbuf)
}

// quantReady reports whether a kernel compiled for the current weight
// generation is available, recompiling a stale one on the spot. Compile
// failures are cached per generation: the module keeps answering false
// (float fallback) without re-attempting until the weights change.
func (m *Module) quantReady() bool {
	g := m.gen.Load()
	if m.qnet != nil && m.qgen == g {
		return true
	}
	if m.qbad && m.qbadGen == g {
		return false
	}
	qn, err := nn.Compile(m.net, m.cfg.LUT) //act:alloc-ok-call recompile runs once per weight generation
	if err != nil {
		m.qbad, m.qbadGen = true, g
		return false
	}
	m.qnet, m.qgen = qn, g
	m.qbad = false
	return true
}

// QuantGeneration returns the weight generation the compiled kernel is
// valid for and whether one exists (tests and diagnostics).
func (m *Module) QuantGeneration() (uint64, bool) { return m.qgen, m.qnet != nil }

// OnDeps processes a run of dependences in stream order, classifying
// testing-mode stretches through the batched fixed-point kernel when
// quantization is enabled. Observable effects — Stats, Debug Buffer,
// trajectory, mode, weights — are bit-identical to
// calling OnDep once per dependence; the batch boundary carries no
// semantics, which is what keeps sequential, staged, and parallel
// replays equivalent.
//
//act:noalloc
func (m *Module) OnDeps(ds []deps.Dep) {
	for len(ds) > 0 {
		if m.mode == Testing && m.cfg.Quantized && m.quantReady() {
			ds = ds[m.onDepsQuant(ds):]
			continue
		}
		m.OnDep(ds[0])
		ds = ds[1:]
	}
}

// onDepsQuant classifies up to quantChunk leading dependences of ds —
// memo hits served directly, all misses with one kernel call — and
// commits their effects, returning how many it consumed (≥ 1). It
// stops early when a completed rate window switches the mode or moves
// the weight generation. Caller guarantees testing mode and a fresh
// kernel.
//
//act:noalloc
func (m *Module) onDepsQuant(ds []deps.Dep) int {
	n := len(ds)
	if n > quantChunk {
		n = quantChunk
	}
	hist := m.cfg.N - 1

	// Phase A — speculate: probe the window memo for every window and
	// run encode + kernel only for the windows that miss. Reads module
	// state but writes nothing observable (the memo is invisible).
	//
	// Only the history/batch boundary is materialized: bbuf holds the
	// window history followed by the first hist chunk dependences, so
	// the hist straddling windows are contiguous; every later window is
	// sliced from ds itself — the chunk (in parallel replay, the fan-out
	// batch) feeds the kernel without a staging copy.
	wsz := hist + 1
	bb := hist
	if n < bb {
		bb = n
	}
	if cap(m.qdeps) < 2*hist {
		m.qdeps = make([]deps.Dep, 2*hist) //act:alloc-ok grow-once boundary buffer
	}
	bbuf := m.qdeps[:hist+bb]
	m.igbTail(bbuf[:hist])
	copy(bbuf[hist:], ds[:bb])
	if cap(m.qouts) < n {
		m.qouts = make([]float64, quantChunk) //act:alloc-ok grow-once output slab
	}
	outs := m.qouts[:n]

	if m.qmemo.n != wsz {
		//act:alloc-ok one-time memo table
		m.qmemo.stamp = make([]uint64, 1<<qmemoBits)
		//act:alloc-ok one-time memo table
		m.qmemo.keys = make([]deps.Dep, wsz<<qmemoBits)
		//act:alloc-ok one-time memo table
		m.qmemo.vals = make([]float64, 1<<qmemoBits)
		m.qmemo.n = wsz
	}
	if cap(m.qhash) < hist+n {
		m.qhash = make([]uint64, quantChunk+hist) //act:alloc-ok grow-once hash slab
	}
	// hd[i] is the hash of element i of the virtual sequence
	// history+chunk, without assembling that sequence anywhere.
	hd := m.qhash[:hist+n]
	for i := 0; i < hist; i++ {
		hd[i] = qdepHash(bbuf[i])
	}
	for i := 0; i < n; i++ {
		hd[hist+i] = qdepHash(ds[i])
	}
	if cap(m.qmiss) < n {
		m.qmiss = make([]int32, quantChunk) //act:alloc-ok grow-once miss index slab
	}
	missBuf := m.qmiss[:n]
	nm := 0
	stampWant := m.qgen + 1 // quantReady pinned qgen == gen
	for k := 0; k < n; k++ {
		wh := hd[k]
		for i := 1; i < wsz; i++ {
			wh = wh*0x100000001b3 ^ hd[k+i]
		}
		// Fibonacci multiply-shift: the product's high bits avalanche
		// where the chained low bits do not (real dependence windows
		// differ in one position and collide badly on low bits).
		b := (wh * 0x9e3779b97f4a7c15) >> (64 - qmemoBits)
		if m.qmemo.stamp[b] == stampWant && qwindowEqual(m.qmemo.keys[b*uint64(wsz):], quantWindow(bbuf, ds, hist, k)) {
			outs[k] = m.qmemo.vals[b]
		} else {
			missBuf[nm] = int32(k)
			nm++
		}
	}
	miss := missBuf[:nm]

	if len(miss) > 0 {
		// Missed windows are encoded densely, one full window each, by
		// the module's sequence encoder — the one OnDep uses — so the
		// kernel sees the same features on both paths. The copy keeps an
		// encoder that returns a fresh slice instead of filling x correct.
		nin := m.net.NIn
		if cap(m.qfeat) < quantChunk*nin {
			m.qfeat = make([]float64, quantChunk*nin) //act:alloc-ok grow-once feature slab
		}
		feat := m.qfeat[:len(miss)*nin]
		for j, k := range miss {
			base := j * nin
			x := feat[base : base+nin : base+nin]
			copy(x, m.cfg.Encoder(deps.Sequence(quantWindow(bbuf, ds, hist, int(k))), x)) //act:alloc-ok-call registered encoders reuse the destination buffer
		}
		// Kernel outputs land in their own scratch (scattering through
		// outs would clobber memo-served values sitting at low indices)
		// and are stored bucket-wise as they scatter; within-chunk
		// duplicates just overwrite with an identical value.
		if cap(m.qmouts) < len(miss) {
			m.qmouts = make([]float64, quantChunk) //act:alloc-ok grow-once miss output slab
		}
		mouts := m.qmouts[:len(miss)]
		m.qnet.ForwardWindows(feat, mouts)
		for j, ki := range miss {
			k := int(ki)
			out := mouts[j]
			outs[k] = out
			wh := hd[k]
			for i := 1; i < wsz; i++ {
				wh = wh*0x100000001b3 ^ hd[k+i]
			}
			b := (wh * 0x9e3779b97f4a7c15) >> (64 - qmemoBits)
			m.qmemo.stamp[b] = stampWant
			copy(m.qmemo.keys[b*uint64(wsz):(b+1)*uint64(wsz)], quantWindow(bbuf, ds, hist, k))
			m.qmemo.vals[b] = out
		}
	}

	// Phase B — commit, in stream order. Counter deltas accumulate in
	// locals and flush in one atomic add per counter; At indices are
	// reconstructed from the pre-chunk base exactly as OnDep's
	// increment-then-read produces them.
	startGen := m.gen.Load()
	base := m.stats.deps.Load()
	var cSeqs, cInv uint64
	size := m.cfg.IGBSize
	k := 0
	for ; k < n; k++ {
		// IGB push (identical transitions to OnDep's, modulo-free).
		if m.igcnt < size {
			pos := m.ighead + m.igcnt
			if pos >= size {
				pos -= size
			}
			m.igb[pos] = ds[k]
			m.igcnt++
		} else {
			m.igb[m.ighead] = ds[k]
			m.ighead++
			if m.ighead == size {
				m.ighead = 0
			}
		}
		cSeqs++
		out := outs[k]
		if out <= m.cfg.SaturationEps || out >= 1-m.cfg.SaturationEps {
			m.satWindow++
		}
		m.pushTraj(out)
		if out < 0.5 {
			cInv++
			m.invalid++
			m.logDebug(deps.Sequence(quantWindow(bbuf, ds, hist, k)), out, base+uint64(k)+1) //act:alloc-ok-call debug-ring capture, only on predicted-invalid
		}
		m.window++
		if m.window >= m.cfg.CheckInterval {
			m.checkRate()
			if m.mode != Testing || m.gen.Load() != startGen {
				k++
				break
			}
		}
	}
	m.stats.deps.Add(uint64(k))
	m.stats.sequences.Add(cSeqs)
	if cInv > 0 {
		m.stats.predictedInvalid.Add(cInv)
	}
	return k
}

// quantWindow returns chunk window k — the hist dependences preceding
// ds[k] followed by ds[k] itself — as a contiguous slice without
// copying: the first hist windows straddle the history/batch boundary
// and live in bbuf (window history then ds[:hist], assembled once per
// chunk), every later window is a subslice of the caller's batch. This
// is what lets the memo probe and the encoder read parallel replay's
// fan-out buffers in place instead of staging them per module.
//
//act:noalloc
func quantWindow(bbuf, ds []deps.Dep, hist, k int) []deps.Dep {
	if k < hist {
		return bbuf[k : k+hist+1]
	}
	return ds[k-hist : k+1]
}

// igbTail copies the last len(dst) IGB entries into dst, zero-padding
// the front while the buffer is still filling — the same window prefix
// OnDep's seqbuf construction produces.
//
//act:noalloc
func (m *Module) igbTail(dst []deps.Dep) {
	h := len(dst)
	size := m.cfg.IGBSize
	if m.igcnt >= h {
		pos := m.ighead + m.igcnt - h
		if pos >= size {
			pos -= size
		}
		for i := 0; i < h; i++ {
			dst[i] = m.igb[pos]
			pos++
			if pos == size {
				pos = 0
			}
		}
		return
	}
	pad := h - m.igcnt
	for i := 0; i < pad; i++ {
		dst[i] = deps.Dep{}
	}
	pos := m.ighead
	for i := 0; i < m.igcnt; i++ {
		dst[pad+i] = m.igb[pos]
		pos++
		if pos == size {
			pos = 0
		}
	}
}
