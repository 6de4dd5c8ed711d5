package nn

import (
	"math"
	"math/rand"
	"testing"
)

// lutNet builds a random network wired to the LUT activation, the state
// a deployed module classifies with.
func lutNet(t *testing.T, seed int64, nIn, nHidden int, lut *SigmoidLUT) *Network {
	t.Helper()
	n := New(nIn, nHidden, rand.New(rand.NewSource(seed)))
	n.Act = lut.Activation()
	return n
}

// trainedLutNet nudges the random weights with a few hundred online
// steps so the test covers momentum-free trained magnitudes, not just
// the ±0.5 init range.
func trainedLutNet(t *testing.T, seed int64, nIn, nHidden int, lut *SigmoidLUT) *Network {
	t.Helper()
	n := lutNet(t, seed, nIn, nHidden, lut)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	x := make([]float64, nIn)
	for i := 0; i < 400; i++ {
		for j := range x {
			x[j] = rng.Float64()
		}
		target := TargetValid
		if i%3 == 0 {
			target = TargetInvalid
		}
		n.Train(x, target, 0.2)
	}
	return n
}

// TestCompileTolerance is the tolerance property test: over many random
// and trained networks and random in-range inputs, the fixed-point
// output stays within the compiled ErrorBound of the float output, and
// verdict ordering is preserved for any pair of inputs whose float
// outputs are separated by more than twice the bound.
func TestCompileTolerance(t *testing.T) {
	lut := DefaultLUT()
	for seed := int64(0); seed < 12; seed++ {
		nIn := 1 + int(seed)%MaxInputs
		nHidden := 1 + int(seed*7)%MaxInputs
		n := trainedLutNet(t, seed, nIn, nHidden, lut)
		q, err := Compile(n, lut)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		bound := q.ErrorBound()
		if !(bound > 0) || bound > 0.5 {
			t.Fatalf("seed %d: implausible error bound %v", seed, bound)
		}
		rng := rand.New(rand.NewSource(seed + 100))
		type pt struct{ fout, qout float64 }
		pts := make([]pt, 0, 256)
		x := make([]float64, nIn)
		for i := 0; i < 256; i++ {
			for j := range x {
				x[j] = rng.Float64()
			}
			fout := n.Forward(x)
			qout := q.Forward(x)
			if d := math.Abs(fout - qout); d > bound {
				t.Fatalf("seed %d: |q-f| = %v exceeds bound %v (f=%v q=%v)", seed, d, bound, fout, qout)
			}
			pts = append(pts, pt{fout, qout})
		}
		// Ordering: pairs separated by more than 2·bound in float must
		// keep their order in fixed point.
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				a, b := pts[i], pts[j]
				if math.Abs(a.fout-b.fout) <= 2*bound {
					continue
				}
				if (a.fout < b.fout) != (a.qout < b.qout) {
					t.Fatalf("seed %d: ordering flipped: f(%v,%v) q(%v,%v)", seed, a.fout, b.fout, a.qout, b.qout)
				}
			}
		}
	}
}

// TestCompileAdaptiveFracBits pins the Q-format choice: small weights
// keep maximal precision, larger magnitudes trade fractional bits for
// range, and each compiled weight matches Quantize at the chosen format.
func TestCompileAdaptiveFracBits(t *testing.T) {
	lut := DefaultLUT()
	cases := []struct {
		scale    float64
		wantFrac int
	}{
		{0.4, 15}, // |w| < 1: Q0.15 covers it
		{3.0, 13}, // needs ±4
		{100, 8},  // needs ±128
	}
	for _, c := range cases {
		n := lutNet(t, 9, 4, 4, lut)
		for h := range n.WH {
			for i := range n.WH[h] {
				n.WH[h][i] *= c.scale / 0.5
			}
		}
		// Keep one weight pinned at the scale so the max is deterministic.
		n.WH[0][0] = c.scale
		q, err := Compile(n, lut)
		if err != nil {
			t.Fatalf("scale %v: %v", c.scale, err)
		}
		if q.FracBits != c.wantFrac {
			t.Fatalf("scale %v: FracBits = %d, want %d", c.scale, q.FracBits, c.wantFrac)
		}
		// Register values must equal the Quantize rounding at the same
		// format: compile IS Quantize, executed in integers.
		ref := n.Clone()
		ref.Quantize(q.FracBits)
		flat := ref.Flatten(nil)
		step := math.Ldexp(1, -q.FracBits)
		for i, r := range q.Weights() {
			if got := float64(r) * step; math.Abs(got-flat[i]) > 1e-12 {
				t.Fatalf("scale %v: register %d = %v, Quantize says %v", c.scale, i, got, flat[i])
			}
		}
	}
}

// TestCompileRejects enumerates the weight states that must fall back
// to float inference rather than compile.
func TestCompileRejects(t *testing.T) {
	lut := DefaultLUT()
	if _, err := Compile(nil, lut); err == nil {
		t.Fatal("nil network compiled")
	}
	for _, poison := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 40000} {
		n := lutNet(t, 3, 3, 2, lut)
		n.WO[1] = poison
		if _, err := Compile(n, lut); err == nil {
			t.Fatalf("weight %v compiled", poison)
		}
	}
	bad := lutNet(t, 3, 3, 2, lut)
	bad.WO = bad.WO[:1] // malformed topology
	if _, err := Compile(bad, lut); err == nil {
		t.Fatal("malformed topology compiled")
	}
}

// TestForwardWindowsMatchesScalar pins bit-identity of the two entry
// points: scalar Forward and ForwardWindows over a dense slab.
func TestForwardWindowsMatchesScalar(t *testing.T) {
	lut := NewSigmoidLUT(200, 7) // non-power-of-two span: divide path
	for _, l := range []*SigmoidLUT{DefaultLUT(), lut} {
		n := trainedLutNet(t, 42, 6, 8, l)
		q, err := Compile(n, l)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		const wins = 97
		slab := make([]float64, wins*q.NIn)
		for i := range slab {
			slab[i] = rng.Float64()
		}
		wouts := make([]float64, wins)
		q.ForwardWindows(slab, wouts)
		for k := range wouts {
			if s := q.Forward(slab[k*q.NIn : (k+1)*q.NIn]); s != wouts[k] {
				t.Fatalf("window %d: scalar %v, windows %v", k, s, wouts[k])
			}
		}
	}
}

// TestForwardWindowsEmpty covers the zero-window call.
func TestForwardWindowsEmpty(t *testing.T) {
	q, err := Compile(lutNet(t, 1, 2, 2, DefaultLUT()), DefaultLUT())
	if err != nil {
		t.Fatal(err)
	}
	q.ForwardWindows(nil, nil) // must not panic
}

// TestQuantInClamps pins the input conversion's totality: any float64,
// including NaN and infinities, lands in [0, qOne].
func TestQuantInClamps(t *testing.T) {
	for _, c := range []struct {
		in   float64
		want int16
	}{
		{math.NaN(), 0}, {math.Inf(-1), 0}, {-3, 0}, {0, 0},
		{1, qOne}, {2, qOne}, {math.Inf(1), qOne},
		{0.5, qOne / 2},
	} {
		if got := quantIn(c.in); got != c.want {
			t.Fatalf("quantIn(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestForwardWindowsAllocs pins the batch classify loop at zero
// steady-state allocations, the dynamic half of its //act:noalloc
// annotation.
func TestForwardWindowsAllocs(t *testing.T) {
	lut := DefaultLUT()
	n := trainedLutNet(t, 7, 6, 8, lut)
	q, err := Compile(n, lut)
	if err != nil {
		t.Fatal(err)
	}
	const wins = 64
	slab := make([]float64, wins*q.NIn)
	for i := range slab {
		slab[i] = float64(i%17) / 17
	}
	outs := make([]float64, wins)
	q.ForwardWindows(slab, outs) // warm the int16 scratch slab
	if avg := testing.AllocsPerRun(200, func() {
		q.ForwardWindows(slab, outs)
	}); avg != 0 {
		t.Fatalf("ForwardWindows allocates %v per call at steady state", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		q.Forward(slab[:q.NIn])
	}); avg != 0 {
		t.Fatalf("Forward allocates %v per call at steady state", avg)
	}
}

// FuzzCompile: Compile must never panic, whatever weight garbage an SEU
// or a runaway update left behind — it either produces a kernel within
// tolerance of the float network or reports an error (the float
// fallback signal).
func FuzzCompile(f *testing.F) {
	f.Add(int64(1), 3.0, false)
	f.Add(int64(2), math.NaN(), true)
	f.Add(int64(3), math.Inf(1), true)
	f.Add(int64(4), 1e300, false)
	f.Add(int64(5), -0.0, false)
	f.Fuzz(func(t *testing.T, seed int64, poison float64, spray bool) {
		rng := rand.New(rand.NewSource(seed))
		nIn := 1 + int(uint64(seed)%MaxInputs)
		nHidden := 1 + int(uint64(seed/7)%MaxInputs)
		n := New(nIn, nHidden, rng)
		lut := DefaultLUT()
		n.Act = lut.Activation()
		if spray {
			for h := range n.WH {
				for i := range n.WH[h] {
					if rng.Intn(3) == 0 {
						n.WH[h][i] = poison
					}
				}
			}
		}
		n.WO[rng.Intn(len(n.WO))] = poison
		q, err := Compile(n, lut)
		if err != nil {
			return // float fallback; nothing more to check
		}
		x := make([]float64, nIn)
		for i := range x {
			x[i] = rng.Float64()
		}
		qout := q.Forward(x)
		if math.IsNaN(qout) || qout < 0 || qout > 1 {
			t.Fatalf("compiled kernel produced out-of-range output %v", qout)
		}
		if d := math.Abs(qout - n.Forward(x)); d > q.ErrorBound() {
			t.Fatalf("|q-f| = %v exceeds bound %v", d, q.ErrorBound())
		}
	})
}

// BenchmarkForwardWindows measures the batched kernel per window on the
// deployed 6-8-1 shape (N=3 windows of 2-feature dependences).
func BenchmarkForwardWindows(b *testing.B) {
	lut := DefaultLUT()
	n := trainedLutNet(&testing.T{}, 7, 6, 8, lut)
	q, err := Compile(n, lut)
	if err != nil {
		b.Fatal(err)
	}
	const wins = 512
	slab := make([]float64, wins*q.NIn)
	for i := range slab {
		slab[i] = float64(i%89) / 97
	}
	outs := make([]float64, wins)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.ForwardWindows(slab, outs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*wins), "ns/window")
}

// BenchmarkFloatForward is the float comparator for the same shape.
func BenchmarkFloatForward(b *testing.B) {
	lut := DefaultLUT()
	n := trainedLutNet(&testing.T{}, 7, 6, 8, lut)
	x := make([]float64, 6)
	for i := range x {
		x[i] = float64(i) / 7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}
