package nn

import (
	"errors"
	"fmt"
	"math"
)

// Fixed-point batched inference. The hardware ACT Module never touches
// floating point at classification time: weights live in signed Q-format
// registers, the multiply-add tree accumulates integers, and the sigmoid
// is a ROM lookup. QNetwork is that datapath in software — a Network
// compiled down to int16 weights in one cache-linear slice, int32
// accumulation, and the quantized-sigmoid table as the only nonlinearity
// — with a batch entry point so one call classifies a whole run of IGB
// windows and the per-window dispatch overhead amortizes away.
//
// A QNetwork is immutable once compiled. Online training keeps mutating
// the float Network it came from, so callers must treat a compiled
// kernel as valid for exactly one weight generation and recompile (or
// fall back to float inference) when the generation moves; core.Module
// keys this off the same generation counter as its window memo.

// QInputFrac is the fixed-point precision of quantized inputs and hidden
// activations: unsigned values in [0, 1] scaled by 2^QInputFrac. The
// choice bounds the int32 accumulator: a product |w|·x is at most
// 2^15 · 2^QInputFrac = 2^26, and a neuron sums at most MaxInputs
// products plus a bias shifted to the same scale, so with QInputFrac=11
// the accumulator stays below (MaxInputs+1) · 2^26 < 2^30 — no overflow
// for any representable weight state.
const QInputFrac = 11

// qOne is 1.0 in input fixed point.
const qOne = 1 << QInputFrac

// QNetwork is a Network compiled to the fixed-point datapath. Create one
// with Compile; the zero value is unusable.
type QNetwork struct {
	NIn      int
	NHidden  int
	FracBits int // weight Q-format: value = register · 2^-FracBits

	// w holds every weight register in Flatten order — NHidden rows of
	// NIn+1 (weights then bias), then the output row of NHidden+1 — one
	// contiguous slice walked strictly sequentially by the kernel.
	w []int16

	// lutOut is the activation table for the output neuron (the exact
	// float values the LUT ROM holds); lutHid is the same table
	// pre-scaled to input fixed point, so hidden activations feed the
	// output accumulator without leaving integers.
	lutOut []float64
	lutHid []int32

	// Activation lookup precompute, in accumulator scale (fractional
	// bits = FracBits + QInputFrac): half is Range, span is 2·Range.
	// When span is a power of two (the default ±8 table with any
	// FracBits) the index computes with a shift instead of a divide.
	half, span int64
	shift      uint
	pow2       bool

	xq    []int16 // scratch: quantized inputs for one Forward call
	slab  []int16 // scratch: quantized feature slab for ForwardWindows
	accs  []int32 // scratch: per-window hidden pre-activations, [window][row]
	bound float64 // conservative |quantized − float| output bound
}

// ErrorBound returns a conservative bound on |q.Forward(x) − n.Forward(x)|
// for the Network n the kernel was compiled from, valid for inputs in
// [0, 1] (the encoder contract). It accounts for weight rounding, input
// and hidden-activation quantization, and the at-most-one-cell index
// shift each can induce in the LUT lookups.
func (q *QNetwork) ErrorBound() float64 { return q.bound }

// Weights returns the register file (tests and diagnostics).
func (q *QNetwork) Weights() []int16 { return append([]int16(nil), q.w...) }

// Compile lowers a float Network onto the fixed-point datapath using the
// given activation table (nil means DefaultLUT). The weight Q-format is
// chosen adaptively: the most fractional bits that still represent the
// largest weight magnitude, rounded by the same rules as
// Network.Quantize. Compile fails — it never panics — when the weight
// state cannot be represented: non-finite weights (an SEU or a runaway
// update), magnitudes beyond the int16 integer range, or a malformed
// topology. Callers treat failure as "keep classifying in float".
func Compile(n *Network, lut *SigmoidLUT) (*QNetwork, error) {
	if n == nil {
		return nil, errors.New("nn: compile of nil network")
	}
	if n.NIn < 1 || n.NHidden < 1 || len(n.WH) != n.NHidden || len(n.WO) != n.NHidden+1 {
		return nil, fmt.Errorf("nn: compile of malformed topology %d-%d-1", n.NIn, n.NHidden)
	}
	for _, row := range n.WH {
		if len(row) != n.NIn+1 {
			return nil, fmt.Errorf("nn: hidden row width %d, want %d", len(row), n.NIn+1)
		}
	}
	if lut == nil {
		lut = DefaultLUT()
	}
	// The entry cap keeps the branchless index numerator,
	// (acc+half)·(Entries−1)+half with |acc| < 2^30 and half ≤ 2^40,
	// comfortably inside int64.
	if lut.Entries < 2 || lut.Entries > 1<<16 || !(lut.Range > 0) || math.IsInf(lut.Range, 0) {
		return nil, fmt.Errorf("nn: compile with malformed LUT (%d entries over ±%v)", lut.Entries, lut.Range)
	}

	// Largest representable-magnitude check and adaptive Q-format: pick
	// the most fractional bits whose saturation limit still covers every
	// weight, so small trained weights keep maximum precision while a
	// drifted large-magnitude state degrades gracefully instead of
	// clipping.
	maxW := 0.0
	scan := func(w float64) error {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return errors.New("nn: compile of non-finite weights")
		}
		if a := math.Abs(w); a > maxW {
			maxW = a
		}
		return nil
	}
	for _, row := range n.WH {
		for _, w := range row {
			if err := scan(w); err != nil {
				return nil, err
			}
		}
	}
	for _, w := range n.WO {
		if err := scan(w); err != nil {
			return nil, err
		}
	}
	frac := 15
	for frac > 0 && maxW > math.Ldexp(1, 15-frac)-math.Ldexp(1, -frac) {
		frac--
	}
	if maxW > math.Ldexp(1, 15)-1 {
		return nil, fmt.Errorf("nn: weight magnitude %g exceeds the int16 register range", maxW)
	}

	q := &QNetwork{
		NIn:      n.NIn,
		NHidden:  n.NHidden,
		FracBits: frac,
		w:        make([]int16, n.WeightCount()),
		lutOut:   lut.table,
		lutHid:   make([]int32, lut.Entries),
		xq:       make([]int16, n.NIn),
	}
	i := 0
	for _, row := range n.WH {
		for _, w := range row {
			q.w[i] = quantRegister(w, frac)
			i++
		}
	}
	for _, w := range n.WO {
		q.w[i] = quantRegister(w, frac)
		i++
	}
	for j, v := range lut.table {
		if !(v >= 0 && v <= 1) { // the sigmoid ROM's codomain; NaN fails too
			return nil, fmt.Errorf("nn: LUT entry %d = %v outside [0, 1]", j, v)
		}
		q.lutHid[j] = int32(v*qOne + 0.5)
	}

	// Index precompute: the accumulator carries FracBits+QInputFrac
	// fractional bits, so Range and 2·Range land at the same scale.
	s := uint(frac + QInputFrac)
	q.half = int64(math.Round(math.Ldexp(lut.Range, int(s))))
	if q.half <= 0 || q.half > 1<<40 {
		return nil, fmt.Errorf("nn: LUT range %v unrepresentable at scale 2^-%d", lut.Range, s)
	}
	q.span = 2 * q.half
	if q.span&(q.span-1) == 0 {
		q.pow2 = true
		for 1<<q.shift < q.span {
			q.shift++
		}
	}
	q.bound = compileBound(n, lut, frac)
	return q, nil
}

// compileBound derives the conservative output-error bound stored in the
// kernel. Error sources, per layer: weight rounding (≤ 2^-(FracBits+1)
// per register), input/hidden quantization (≤ 2^-(QInputFrac+1) per
// value), and the LUT index each perturbed pre-activation resolves to,
// which can move at most round(δ/cell)+1 entries for a pre-activation
// error δ and cell width 2·Range/(Entries−1).
func compileBound(n *Network, lut *SigmoidLUT, frac int) float64 {
	ew := math.Ldexp(1, -(frac + 1))       // weight rounding
	ex := math.Ldexp(1, -(QInputFrac + 1)) // input/hidden quantization
	cell := 2 * lut.Range / float64(lut.Entries-1)
	step := 0.0 // largest adjacent-entry jump in the table
	for i := 1; i < lut.Entries; i++ {
		if d := math.Abs(lut.table[i] - lut.table[i-1]); d > step {
			step = d
		}
	}
	lutErr := func(pre float64) float64 { // value error from a pre-activation error
		return (math.Floor(pre/cell) + 1) * step
	}
	// Hidden layer: inputs are in [0, 1], so each row's pre-activation
	// error is bounded by the row's weight-rounding mass plus its
	// magnitude times the input quantization.
	worstH := 0.0
	for _, row := range n.WH {
		sum := 0.0
		for _, w := range row[:n.NIn] {
			sum += math.Abs(w)
		}
		if d := ew*float64(n.NIn+1) + sum*ex; d > worstH {
			worstH = d
		}
	}
	dh := lutErr(worstH) + ex // value error of any hidden activation
	sumO := 0.0
	for _, w := range n.WO[:n.NHidden] {
		sumO += math.Abs(w)
	}
	preO := ew*float64(n.NHidden+1) + sumO*dh
	return lutErr(preO)
}

// quantIn maps a float input to input fixed point. Inputs follow the
// encoder contract (0, 1); values outside — including NaN — clamp to the
// ends, so the conversion can never overflow int16.
//
//act:noalloc
func quantIn(v float64) int16 {
	if !(v > 0) { // NaN lands here too
		return 0
	}
	if v >= 1 {
		return qOne
	}
	return int16(v*qOne + 0.5)
}

// index resolves an accumulator value (FracBits+QInputFrac fractional
// bits) to a LUT entry: saturate beyond ±Range, round to nearest inside,
// exactly the float Apply's indexing done in integers.
//
// The clamp runs after the raw index computation rather than before it:
// saturation depends on the data, so a pre-test is an unpredictable
// branch paid twice per lookup, while the post-clamp compiles to
// conditional moves. Outside ±Range the raw index is monotonic in the
// accumulator (the >> floors; the / path can truncate toward zero on a
// negative numerator, but every negative numerator clamps to 0 anyway),
// so clamping lands on exactly the entry the saturating pre-test picks.
//
//act:noalloc
func (q *QNetwork) index(acc int32) int32 {
	a := int64(acc)
	last := int64(len(q.lutHid) - 1)
	num := (a+q.half)*last + q.half
	var idx int64
	if q.pow2 {
		idx = num >> q.shift
	} else {
		idx = num / q.span
	}
	if idx < 0 {
		idx = 0
	}
	if idx > last {
		idx = last
	}
	return int32(idx)
}

// classify runs the integer datapath over one quantized input window.
// Forward runs it directly; ForwardWindows repeats its arithmetic, so
// the scalar and batched paths are bit-identical.
//
//act:noalloc
func (q *QNetwork) classify(xq []int16) float64 {
	per := q.NIn + 1
	w := q.w
	lut := q.lutHid
	wo := w[q.NHidden*per:]
	off := 0
	var oacc int32
	for h := 0; h < q.NHidden; h++ {
		// Row/input sub-slices of equal length let the compiler drop the
		// per-element bounds checks in the multiply-accumulate loop.
		row := w[off : off+q.NIn]
		x := xq[:len(row)]
		acc := int32(w[off+q.NIn]) << QInputFrac // bias, pre-shifted to accumulator scale
		i := 0
		for ; i+3 < len(row); i += 4 {
			acc += int32(row[i])*int32(x[i]) + int32(row[i+1])*int32(x[i+1]) +
				int32(row[i+2])*int32(x[i+2]) + int32(row[i+3])*int32(x[i+3])
		}
		for ; i < len(row); i++ {
			acc += int32(row[i]) * int32(x[i])
		}
		off += per
		oacc += int32(wo[h]) * lut[q.index(acc)]
	}
	oacc += int32(wo[q.NHidden]) << QInputFrac
	return q.lutOut[q.index(oacc)]
}

// Forward classifies one input vector (len must be NIn) through the
// fixed-point datapath.
//
//act:noalloc
func (q *QNetwork) Forward(x []float64) float64 {
	if len(x) != q.NIn {
		//act:alloc-ok topology-mismatch panic, cold guard
		panic(fmt.Sprintf("nn: input width %d, want %d", len(x), q.NIn))
	}
	statForward.Inc()
	for i, v := range x {
		q.xq[i] = quantIn(v)
	}
	return q.classify(q.xq)
}

// ForwardWindows classifies len(outs) windows packed densely in a
// feature slab: window k's input is feat[k·NIn : (k+1)·NIn]. The slab is
// quantized in one pass and the forward-pass counter is batched.
//
//act:noalloc
func (q *QNetwork) ForwardWindows(feat, outs []float64) {
	n := len(outs)
	if n == 0 {
		return
	}
	need := n * q.NIn
	if need > len(feat) {
		//act:alloc-ok slab-shape panic, cold guard
		panic(fmt.Sprintf("nn: slab of %d too short for %d windows of %d", len(feat), n, q.NIn))
	}
	statForward.Add(uint64(n))
	if cap(q.slab) < need {
		q.slab = make([]int16, need) //act:alloc-ok grow-once slab scratch
	}
	slab := q.slab[:need]
	for i := 0; i < need; i++ {
		slab[i] = quantIn(feat[i])
	}

	// Batched evaluation runs in two passes so each loop stays small
	// enough for the register allocator: a one-window-at-a-time loop
	// keeps the whole QNetwork live and spills every variable to the
	// stack. Pass one is pure multiply-accumulate — for each hidden row
	// the slab is walked window by window, the row reloaded once, the
	// pre-activations stored to a [window][row] scratch. Pass two turns
	// pre-activations into outputs: branchless LUT indexing, output-row
	// accumulation, final table read. The arithmetic is identical to
	// classify, instruction for instruction per value
	// (TestForwardWindowsMatchesScalar pins the bit-equality).
	nin, nh := q.NIn, q.NHidden
	per := nin + 1
	w := q.w
	if cap(q.accs) < n*nh {
		q.accs = make([]int32, n*nh) //act:alloc-ok grow-once pre-activation scratch
	}
	accs := q.accs[: n*nh : n*nh]
	for h := 0; h < nh; h++ {
		off := h * per
		row := w[off : off+nin : off+nin]
		bias := int32(w[off+nin]) << QInputFrac
		// Cursor-stepped indexing: ai walks the scratch at stride nh, xo
		// walks the slab one window at a time, so the loop carries adds
		// instead of per-iteration multiplies.
		ai, xo := h, 0
		switch nin {
		case 6:
			// The deployed shape (N=3 windows of 2-feature dependences):
			// row weights live in registers, one load+MAC per input.
			w0, w1, w2 := int32(row[0]), int32(row[1]), int32(row[2])
			w3, w4, w5 := int32(row[3]), int32(row[4]), int32(row[5])
			for k := 0; k < n; k++ {
				x := slab[xo : xo+6 : xo+6]
				accs[ai] = bias +
					w0*int32(x[0]) + w1*int32(x[1]) + w2*int32(x[2]) +
					w3*int32(x[3]) + w4*int32(x[4]) + w5*int32(x[5])
				ai += nh
				xo += 6
			}
		case 4:
			w0, w1, w2, w3 := int32(row[0]), int32(row[1]), int32(row[2]), int32(row[3])
			for k := 0; k < n; k++ {
				x := slab[xo : xo+4 : xo+4]
				accs[ai] = bias +
					w0*int32(x[0]) + w1*int32(x[1]) + w2*int32(x[2]) + w3*int32(x[3])
				ai += nh
				xo += 4
			}
		case 2:
			w0, w1 := int32(row[0]), int32(row[1])
			for k := 0; k < n; k++ {
				x := slab[xo : xo+2 : xo+2]
				accs[ai] = bias + w0*int32(x[0]) + w1*int32(x[1])
				ai += nh
				xo += 2
			}
		default:
			for k := 0; k < n; k++ {
				x := slab[xo : xo+nin]
				acc := bias
				for i, wv := range row {
					acc += int32(wv) * int32(x[i])
				}
				accs[ai] = acc
				ai += nh
				xo += nin
			}
		}
	}

	// Pass two is specialized on the index mode: the power-of-two span
	// (any FracBits with the default ±8 table) indexes with a shift, the
	// general case with a divide. Specializing whole loops keeps the
	// mode test out of the per-lookup path.
	wo := w[nh*per : nh*per+nh+1]
	lutH, lutO := q.lutHid, q.lutOut
	half := q.half
	last := int64(len(lutH) - 1)
	obias := int32(wo[nh]) << QInputFrac
	if q.pow2 {
		shift := q.shift
		ai := 0
		for k := 0; k < n; k++ {
			oacc := obias
			for h := 0; h < nh; h++ {
				// Branchless index: see the comment on QNetwork.index.
				num := (int64(accs[ai])+half)*last + half
				ai++
				idx := num >> shift
				if idx < 0 {
					idx = 0
				}
				if idx > last {
					idx = last
				}
				oacc += int32(wo[h]) * lutH[idx]
			}
			num := (int64(oacc)+half)*last + half
			idx := num >> shift
			if idx < 0 {
				idx = 0
			}
			if idx > last {
				idx = last
			}
			outs[k] = lutO[idx]
		}
		return
	}
	span := q.span
	ai := 0
	for k := 0; k < n; k++ {
		oacc := obias
		for h := 0; h < nh; h++ {
			num := (int64(accs[ai])+half)*last + half
			ai++
			idx := num / span
			if idx < 0 {
				idx = 0
			}
			if idx > last {
				idx = last
			}
			oacc += int32(wo[h]) * lutH[idx]
		}
		num := (int64(oacc)+half)*last + half
		idx := num / span
		if idx < 0 {
			idx = 0
		}
		if idx > last {
			idx = last
		}
		outs[k] = lutO[idx]
	}
}
