// Batched classification (OnDeps) and fixed-point inference
// (Config.Quantized).
//
// OnDep classifies one window at a time: encode the padded sequence,
// run the network, update the counters. OnDeps classifies runs of
// testing-mode dependences in chunks, in either precision: every window
// is probed in the generation-stamped window memo (production streams
// repeat a small set of hot windows, so most probes hit), and only the
// missed windows are encoded and classified, all of them with one
// ForwardWindows call — nn.QNetwork's int16 kernel when Quantized is set
// and the live weights compile for the current generation,
// nn.Network's float pass otherwise. The chunk itself is never staged:
// windows past the first N-1 lie entirely inside the caller's batch —
// in parallel replay, the fan-out buffer delivered to the worker — and
// are sliced from it in place; only the history/batch boundary is
// materialized (see batchWindow). Training mode always runs OnDep:
// every step moves the weights, so nothing could be reused.
//
// What it buys: the memo serves a verdict with one hash probe and one
// exact key compare instead of encode + forward pass, and the chunk's
// counters are flushed once instead of per dependence. On a stream
// whose windows are all distinct it saves nothing and costs the probe
// and the key store per window.
//
// Staleness follows the module's weight generation: a compiled kernel
// and every memo entry are valid for exactly one value of Module.gen,
// so every online training step, mode switch, breaker recovery,
// rollback, LoadWeights, and InvalidateVerdicts orphans them; the next
// testing-mode classification recompiles (~a hundred int16 stores).
// When the weight state cannot compile — non-finite registers after an
// SEU — the module remembers the failure for that generation and
// classifies in float, so the NaN-divergence breaker still sees the
// poisoned outputs it needs.
//
// The memo is sized to use: a module's table starts at 2^memoMinBits
// buckets and quadruples, up to 2^memoMaxBits, when the misses that
// found another window's current verdict in their bucket since it was
// built exceed its bucket count; the per-chunk slabs grow to the chunk
// and miss counts actually seen. A module that replays one short failing
// run never pays for the full table, and one whose few hot windows fit
// keeps its small table across weight changes.
//
// The batch boundary is invisible: OnDeps commits per-dependence effects
// (IGB, trajectory, Debug Buffer, Invalid Counter, rate windows) in
// stream order, with the same values per-dependence OnDep would
// produce, and re-checks mode and generation at every window
// boundary so a mid-batch mode switch or recovery falls back to the
// per-dependence path for the remainder. A float network can output NaN
// (NaN weights, or finite sums that overflow to opposite infinities);
// with the breaker on, the commit stops at the first non-finite output
// and hands that dependence, and the rest of the chunk after it, to
// OnDep, which recomputes it, rolls back and reclassifies. Stats
// counters are accumulated locally and flushed once per chunk — a
// concurrent metrics scrape may lag by at most batchChunk dependences,
// within the monitoring contract (exact counters, cross-counter
// consistency at quiescence).

package core

import (
	"math"
	"math/bits"

	"act/internal/deps"
	"act/internal/nn"
)

// batchChunk caps how many dependences one batch classifies. It bounds
// the staging slabs and the window between mode/generation re-checks;
// deps.Fanout's default batch is the same size.
const batchChunk = 512

// The window memo has 2^bits direct-mapped buckets, bits between
// memoMinBits and memoMaxBits. Production dependence streams are
// dominated by a small set of hot windows (the radix bench trace has 13
// distinct dependences), so even a small table approaches a 100% hit
// rate; a collision just overwrites the bucket and costs one
// recomputation.
const (
	memoMinBits = 4
	memoMaxBits = 10
)

// windowMemo memoizes batch classification: bucket b holds one full
// window (n = N dependences, compared exactly on every probe — never
// matched by hash alone) and the verdict computed for it, stamped with
// the weight generation + 1 it was computed under (stamp 0 means
// empty). A verdict is a pure function of (generation, window) — within
// one generation the kernel choice is fixed too — so serving a stamped,
// key-verified entry is bit-identical to re-running the network;
// bumping the generation invalidates every entry at once because
// generations are never reused. It is the module's only verdict memo:
// internal, exact-keyed, and allocation-free once grown — it exists to
// skip encode+inference, not to be observable, so hits leave no trace
// in Stats.
type windowMemo struct {
	stamp []uint64
	keys  []deps.Dep
	vals  []float64
	n     int  // window width the table was built for; 0 before first use
	bits  uint // log2 of the bucket count
	// conflicts counts, since the table was built, the misses that found
	// their bucket holding another window's current verdict: the misses
	// a larger table would avoid. A miss on an empty or stale bucket —
	// every window's first sighting after a weight change — says
	// nothing about capacity.
	conflicts int
}

// ready builds the table for windows of wsz dependences on first use,
// and quadruples it while the conflicts since the last build exceed the
// bucket count. A rebuild drops every entry, which costs recomputation
// only.
func (w *windowMemo) ready(wsz int) {
	switch {
	case w.n != wsz:
		w.build(wsz, memoMinBits)
	case w.conflicts > len(w.stamp) && w.bits < memoMaxBits:
		w.build(wsz, w.bits+2)
	}
}

func (w *windowMemo) build(wsz int, b uint) {
	w.stamp = make([]uint64, 1<<b)
	w.keys = make([]deps.Dep, wsz<<b)
	w.vals = make([]float64, 1<<b)
	w.n, w.bits, w.conflicts = wsz, b, 0
}

// bucket maps a window hash onto the table. Fibonacci multiply-shift:
// the product's high bits avalanche where the chained low bits do not
// (real dependence windows differ in one position and collide badly on
// low bits).
//
//act:noalloc
func (w *windowMemo) bucket(wh uint64) uint64 {
	return (wh * 0x9e3779b97f4a7c15) >> (64 - w.bits)
}

// windowEqual reports whether the memoized key a equals window b.
//
//act:noalloc
func windowEqual(a, b []deps.Dep) bool {
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// depHash mixes one dependence into a 64-bit hash.
//
//act:noalloc
func depHash(d deps.Dep) uint64 {
	h := d.S*0x9e3779b97f4a7c15 ^ bits.RotateLeft64(d.L*0xbf58476d1ce4e5b9, 31)
	if d.Inter {
		h ^= 0x94d049bb133111eb
	}
	return h
}

// windowHash chains the per-dependence hashes of one window.
//
//act:noalloc
func windowHash(hd []uint64) uint64 {
	wh := hd[0]
	for _, h := range hd[1:] {
		wh = wh*0x100000001b3 ^ h
	}
	return wh
}

// slabCap is the capacity a batch slab grows to when it must hold need
// elements: at least double the old capacity, capped at limit, so slabs
// sized to use settle after a few chunks.
//
//act:noalloc
func slabCap(old, need, limit int) int {
	return max(need, min(2*old, limit))
}

// classify runs one testing-mode inference over the encoded window in
// xbuf: fixed-point when enabled and compilable, float otherwise. The
// scalar and batched paths share each precision's arithmetic, so their
// outputs are bit-identical.
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
// testing-mode stretches through the batch path — window memo first,
// then one ForwardWindows call over the misses, in the module's
// precision. Observable effects — Stats, Debug Buffer, trajectory,
// mode, weights — are bit-identical to calling OnDep once per
// dependence; the batch boundary carries no semantics, which is what
// keeps sequential, staged, and parallel replays equivalent.
//
//act:noalloc
func (m *Module) OnDeps(ds []deps.Dep) {
	for len(ds) > 0 {
		if m.mode == Testing {
			ds = ds[m.onDepsBatch(ds):]
			continue
		}
		m.OnDep(ds[0])
		ds = ds[1:]
	}
}

// onDepsBatch classifies up to batchChunk leading dependences of ds —
// memo hits served directly, all misses with one ForwardWindows call —
// and commits their effects, returning how many it consumed (≥ 1). It
// stops early when a completed rate window switches the mode or moves
// the weight generation; with the breaker on, a non-finite output hands
// that dependence and the rest of the chunk to OnDep. Caller guarantees
// testing mode.
//
//act:noalloc
func (m *Module) onDepsBatch(ds []deps.Dep) int {
	n := len(ds)
	if n > batchChunk {
		n = batchChunk
	}
	hist := m.cfg.N - 1
	// The precision is fixed for the whole chunk: the generation cannot
	// move before the commit phase, and the commit stops when it does.
	quant := m.cfg.Quantized && m.quantReady()

	// Phase A — speculate: probe the window memo for every window and
	// run encode + inference only for the windows that miss. Reads
	// module state but writes nothing observable (the memo is
	// invisible).
	//
	// Only the history/batch boundary is materialized: bbuf holds the
	// window history followed by the first hist chunk dependences, so
	// the hist straddling windows are contiguous; every later window is
	// sliced from ds itself — the chunk (in parallel replay, the fan-out
	// batch) feeds the network without a staging copy.
	wsz := hist + 1
	bb := min(hist, n)
	if cap(m.bdeps) < 2*hist {
		m.bdeps = make([]deps.Dep, 2*hist) //act:alloc-ok grow-once boundary buffer
	}
	bbuf := m.bdeps[:hist+bb]
	m.igbTail(bbuf[:hist])
	copy(bbuf[hist:], ds[:bb])
	if cap(m.bouts) < n {
		m.bouts = make([]float64, slabCap(cap(m.bouts), n, batchChunk)) //act:alloc-ok grow-to-need output slab
	}
	outs := m.bouts[:n]

	memo := &m.memo
	memo.ready(wsz) //act:alloc-ok-call memo table, built small and grown at most three times
	if cap(m.bhash) < hist+n {
		m.bhash = make([]uint64, slabCap(cap(m.bhash), hist+n, batchChunk+hist)) //act:alloc-ok grow-to-need hash slab
	}
	// hd[i] is the hash of element i of the virtual sequence
	// history+chunk, without assembling that sequence anywhere.
	hd := m.bhash[:hist+n]
	for i := 0; i < hist; i++ {
		hd[i] = depHash(bbuf[i])
	}
	for i := 0; i < n; i++ {
		hd[hist+i] = depHash(ds[i])
	}
	if cap(m.bmiss) < n {
		m.bmiss = make([]int32, slabCap(cap(m.bmiss), n, batchChunk)) //act:alloc-ok grow-to-need miss index slab
	}
	missBuf := m.bmiss[:n]
	nm := 0
	stampWant := m.gen.Load() + 1
	for k := 0; k < n; k++ {
		b := memo.bucket(windowHash(hd[k : k+wsz]))
		if memo.stamp[b] == stampWant {
			if windowEqual(memo.keys[b*uint64(wsz):], batchWindow(bbuf, ds, hist, k)) {
				outs[k] = memo.vals[b]
				continue
			}
			memo.conflicts++
		}
		missBuf[nm] = int32(k)
		nm++
	}
	miss := missBuf[:nm]

	if nm > 0 {
		// Missed windows are encoded densely, one full window each, by
		// the module's sequence encoder — the one OnDep uses — so the
		// network sees the same features on both paths. The copy keeps
		// an encoder that returns a fresh slice instead of filling x
		// correct.
		nin := m.net.NIn
		if cap(m.bfeat) < nm*nin {
			m.bfeat = make([]float64, slabCap(cap(m.bfeat), nm*nin, batchChunk*nin)) //act:alloc-ok grow-to-need feature slab
		}
		feat := m.bfeat[:nm*nin]
		for j, k := range miss {
			base := j * nin
			x := feat[base : base+nin : base+nin]
			copy(x, m.cfg.Encoder(deps.Sequence(batchWindow(bbuf, ds, hist, int(k))), x)) //act:alloc-ok-call registered encoders reuse the destination buffer
		}
		// Network outputs land in their own scratch (scattering through
		// outs would clobber memo-served values sitting at low indices)
		// and are stored bucket-wise as they scatter; within-chunk
		// duplicates just overwrite with an identical value.
		if cap(m.bmouts) < nm {
			m.bmouts = make([]float64, slabCap(cap(m.bmouts), nm, batchChunk)) //act:alloc-ok grow-to-need miss output slab
		}
		mouts := m.bmouts[:nm]
		if quant {
			m.qnet.ForwardWindows(feat, mouts)
		} else {
			m.net.ForwardWindows(feat, mouts)
		}
		for j, ki := range miss {
			k := int(ki)
			out := mouts[j]
			outs[k] = out
			b := memo.bucket(windowHash(hd[k : k+wsz]))
			memo.stamp[b] = stampWant
			copy(memo.keys[b*uint64(wsz):(b+1)*uint64(wsz)], batchWindow(bbuf, ds, hist, k))
			memo.vals[b] = out
		}
	}

	// Phase B — commit, in stream order. Counter deltas accumulate in
	// locals and flush in one atomic add per counter; At indices are
	// reconstructed from the pre-chunk base exactly as OnDep's
	// increment-then-read produces them.
	startGen := m.gen.Load()
	base := m.stats.deps.Load()
	breaker := m.cfg.RecoveryWindows >= 0
	nonFinite := false
	var cInv uint64
	size := m.cfg.IGBSize
	k := 0
	for ; k < n; k++ {
		out := outs[k]
		if breaker && (math.IsNaN(out) || math.IsInf(out, 0)) {
			nonFinite = true
			break
		}
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
		if out <= m.cfg.SaturationEps || out >= 1-m.cfg.SaturationEps {
			m.satWindow++
		}
		m.pushTraj(out)
		if out < 0.5 {
			cInv++
			m.invalid++
			m.logDebug(deps.Sequence(batchWindow(bbuf, ds, hist, k)), out, base+uint64(k)+1) //act:alloc-ok-call debug-ring capture, only on predicted-invalid
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
	if k > 0 {
		m.stats.deps.Add(uint64(k))
		m.stats.sequences.Add(uint64(k))
	}
	if cInv > 0 {
		m.stats.predictedInvalid.Add(cInv)
	}
	if nonFinite {
		// The poisoned weights need the breaker's immediate rollback,
		// which OnDep runs: it recomputes the same output, recovers, and
		// reclassifies under the restored weights. The rest of the chunk
		// follows it one dependence at a time: when recovery cannot cure
		// the outputs — the restored snapshot overflows too, or there is
		// none — re-entering the batch would re-probe and re-classify the
		// remainder for every dependence it consumes.
		for _, d := range ds[k:n] {
			m.OnDep(d)
		}
		k = n
	}
	return k
}

// batchWindow returns chunk window k — the hist dependences preceding
// ds[k] followed by ds[k] itself — as a contiguous slice without
// copying: the first hist windows straddle the history/batch boundary
// and live in bbuf (window history then ds[:hist], assembled once per
// chunk), every later window is a subslice of the caller's batch. This
// is what lets the memo probe and the encoder read parallel replay's
// fan-out buffers in place instead of staging them per module.
//
//act:noalloc
func batchWindow(bbuf, ds []deps.Dep, hist, k int) []deps.Dep {
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
