package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"act/internal/deps"
	"act/internal/nn"
)

// quantModulePair builds two identically seeded modules, their networks
// sized for cfg's encoder, so a test can drive one through OnDep and the
// other through OnDeps and compare every observable.
func quantModulePair(seed int64, cfg Config) (*Module, *Module) {
	mk := func() *Module {
		nIn := deps.InputLen(cfg.withDefaults().Encoder, cfg.N)
		return NewModule(nn.New(nIn, 6, rand.New(rand.NewSource(seed))), cfg)
	}
	return mk(), mk()
}

// randDeps builds a dependence stream over a small address pool (so
// windows repeat and the window memo gets hits).
func randDeps(seed int64, n int) []deps.Dep {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]deps.Dep, n)
	for i := range ds {
		ds[i] = deps.Dep{
			S:     0x1000 + uint64(rng.Intn(24))*8,
			L:     0x8000 + uint64(rng.Intn(24))*8,
			Inter: rng.Intn(4) == 0,
		}
	}
	return ds
}

// moduleStateEqual asserts two modules reached bit-identical observable
// state.
func moduleStateEqual(t *testing.T, ref, got *Module) {
	t.Helper()
	if rs, gs := ref.Stats(), got.Stats(); rs != gs {
		t.Fatalf("stats diverge:\nper-dep %+v\nbatched %+v", rs, gs)
	}
	if ref.Mode() != got.Mode() {
		t.Fatalf("mode diverges: %v vs %v", ref.Mode(), got.Mode())
	}
	if rg, gg := ref.Generation(), got.Generation(); rg != gg {
		t.Fatalf("generation diverges: %d vs %d", rg, gg)
	}
	if !reflect.DeepEqual(ref.DebugBuffer(), got.DebugBuffer()) {
		t.Fatalf("debug buffers diverge: %d vs %d entries", len(ref.DebugBuffer()), len(got.DebugBuffer()))
	}
	if !reflect.DeepEqual(ref.SaveWeights(), got.SaveWeights()) {
		t.Fatal("weights diverge")
	}
}

// TestOnDepsMatchesOnDep is the batch-boundary invisibility property:
// feeding a stream through OnDeps in arbitrary chunkings — including
// chunks beyond quantChunk — leaves the module in exactly the state a
// per-dependence OnDep loop produces, in float and quantized, under both
// built-in encoders and a custom one, with rate windows short enough
// that modes flip and kernels go stale mid-chunk.
func TestOnDepsMatchesOnDep(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"float", Config{N: 3, CheckInterval: 64}},
		{"quant", Config{N: 3, CheckInterval: 64, Quantized: true}},
		{"quant+pairhash", Config{N: 3, CheckInterval: 64, Quantized: true, Encoder: deps.EncodePairHash}},
		// A custom encoder that ignores dst: the batch path must copy
		// its result into the feature slab.
		{"quant+custom", Config{N: 2, CheckInterval: 64, Quantized: true, Encoder: func(s deps.Sequence, _ []float64) []float64 {
			return deps.EncodeDefault(s, nil)
		}}},
		{"quant+N1", Config{N: 1, CheckInterval: 100, Quantized: true}},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				ref, got := quantModulePair(seed, tc.cfg)
				ds := randDeps(seed, 4000)
				for _, d := range ds {
					ref.OnDep(d)
				}
				rng := rand.New(rand.NewSource(seed + 77))
				for len(ds) > 0 {
					n := 1 + rng.Intn(700) // crosses quantChunk
					if n > len(ds) {
						n = len(ds)
					}
					got.OnDeps(ds[:n])
					ds = ds[n:]
				}
				moduleStateEqual(t, ref, got)
			})
		}
	}
}

// TestQuantReadyLifecycle pins the generation scheme: a compiled kernel
// is valid for exactly one weight generation; training steps, direct
// weight mutation, and InvalidateVerdicts all orphan it; a poisoned
// weight state refuses to compile (float fallback) until recovery
// produces a compilable one again.
func TestQuantReadyLifecycle(t *testing.T) {
	cfg := Config{N: 3, Quantized: true}
	m, _ := quantModulePair(11, cfg)

	// First classification compiles a kernel for the current generation.
	m.OnDep(deps.Dep{S: 1, L: 2})
	g0, ok := m.QuantGeneration()
	if !ok || g0 != m.Generation() {
		t.Fatalf("no kernel after first classification (gen %d, qgen %d ok=%v)", m.Generation(), g0, ok)
	}

	// A training pass moves the generation; the next testing
	// classification must recompile.
	m.ForceMode(Training)
	m.OnDep(deps.Dep{S: 3, L: 4})
	m.ForceMode(Testing)
	m.OnDep(deps.Dep{S: 5, L: 6})
	g1, _ := m.QuantGeneration()
	if g1 == g0 || g1 != m.Generation() {
		t.Fatalf("kernel not recompiled after training (was gen %d, now %d, module gen %d)", g0, g1, m.Generation())
	}

	// Poison the weights through the diagnostics hook: compile must
	// fail, classification must fall back to float (surfacing NaN), the
	// breaker must recover, and the kernel must re-arm at the recovered
	// generation.
	m.Network().WO[0] = math.NaN()
	m.InvalidateVerdicts()
	before := m.Stats().Recoveries
	m.OnDep(deps.Dep{S: 7, L: 8})
	if rec := m.Stats().Recoveries; rec != before+1 {
		t.Fatalf("NaN weights did not trigger recovery (recoveries %d -> %d)", before, rec)
	}
	m.OnDep(deps.Dep{S: 9, L: 10})
	g2, ok := m.QuantGeneration()
	if !ok || g2 != m.Generation() || g2 == g1 {
		t.Fatalf("kernel not re-armed after recovery (qgen %d ok=%v, module gen %d)", g2, ok, m.Generation())
	}
}

// TestQuantRollbackRecompiles drives the breaker's stalled-window
// rollback with the quantized path active: a SaturationEps wide enough
// to call every window pinned forces recover() from checkRate, which
// must orphan the kernel mid-stream without diverging from the per-dep
// path.
func TestQuantRollbackRecompiles(t *testing.T) {
	cfg := Config{
		N: 3, Quantized: true, CheckInterval: 50,
		SaturationEps: 0.5, RecoveryWindows: 2, MispredThreshold: NeverTrain,
	}
	ref, got := quantModulePair(5, cfg)
	ds := randDeps(5, 1000)
	for _, d := range ds {
		ref.OnDep(d)
	}
	got.OnDeps(ds)
	if ref.Stats().Recoveries == 0 {
		t.Fatal("fixture did not roll back; the test exercises nothing")
	}
	moduleStateEqual(t, ref, got)
	// The kernel re-arms lazily on the next classification after the
	// rollback moved the generation.
	got.OnDep(deps.Dep{S: 0xfeed, L: 0xbeef})
	g, ok := got.QuantGeneration()
	if !ok || g != got.Generation() {
		t.Fatalf("kernel stale after rollback (qgen %d ok=%v, gen %d)", g, ok, got.Generation())
	}
}

// TestOnDepsSteadyStateAllocs pins the batched classification loop at
// zero steady-state allocations — the dynamic half of OnDeps'
// //act:noalloc annotation, quantized and float.
func TestOnDepsSteadyStateAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"quant", Config{N: 3, Quantized: true}},
		{"float", Config{N: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nIn := deps.InputLen(deps.EncodeDefault, 3)
			wb := AlwaysValidBinary(nIn, 8, 1)
			tr := NewTracker(wb, TrackerConfig{Module: tc.cfg})
			m := tr.Module(0)
			ds := randDeps(21, 256)
			m.OnDeps(ds) // warm-up: kernel compile, slab growth
			if n := testing.AllocsPerRun(100, func() {
				m.OnDeps(ds)
			}); n > 0 {
				t.Fatalf("steady-state OnDeps allocates: %.1f allocs per %d deps", n, len(ds))
			}
		})
	}
}
