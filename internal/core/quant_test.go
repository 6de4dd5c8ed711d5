package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"act/internal/deps"
	"act/internal/nn"
	"act/internal/obs"
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

// hotDeps builds a dependence stream over a pool of 6 dependences, so
// most N=3 windows repeat and the memo serves most of the stream.
func hotDeps(seed int64, n int) []deps.Dep {
	rng := rand.New(rand.NewSource(seed))
	ds := make([]deps.Dep, n)
	for i := range ds {
		k := uint64(rng.Intn(6))
		ds[i] = deps.Dep{S: 0x1000 + k*8, L: 0x8000 + k*16, Inter: k == 0}
	}
	return ds
}

// moduleStateEqual asserts two modules reached bit-identical observable
// state. Floats are compared by their bits, so NaN weights and outputs
// — which the breaker-off cases produce — compare equal to themselves.
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
	rd, gd := ref.DebugBuffer(), got.DebugBuffer()
	if len(rd) != len(gd) {
		t.Fatalf("debug buffers diverge: %d vs %d entries", len(rd), len(gd))
	}
	for i := range rd {
		r, g := rd[i], gd[i]
		if !reflect.DeepEqual(r.Seq, g.Seq) || r.At != g.At || r.Mode != g.Mode ||
			!floatBitsEqual([]float64{r.Output}, []float64{g.Output}) || !floatBitsEqual(r.Traj, g.Traj) {
			t.Fatalf("debug entry %d diverges:\nper-dep %+v\nbatched %+v", i, r, g)
		}
	}
	if !floatBitsEqual(ref.SaveWeights(), got.SaveWeights()) {
		t.Fatal("weights diverge")
	}
	if !floatBitsEqual(ref.traj[:], got.traj[:]) || ref.thead != got.thead || ref.tcnt != got.tcnt {
		t.Fatal("output trajectories diverge")
	}
}

func floatBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hugeWeights loads registers of random sign and magnitude 1e308: finite,
// so the breaker snapshots them, but every pre-activation sum overflows.
func hugeWeights(m *Module, rng *rand.Rand) {
	w := make([]float64, m.Network().WeightCount())
	for i := range w {
		w[i] = 1e308
		if rng.Intn(2) == 0 {
			w[i] = -1e308
		}
	}
	if err := m.LoadWeights(w); err != nil {
		panic(err)
	}
}

// wideEncoder scales the default features by 4, so a 1e308 weight times
// a feature overflows on its own and opposite infinities meet in one
// sum: NaN from finite weights.
func wideEncoder(s deps.Sequence, dst []float64) []float64 {
	x := deps.EncodeDefault(s, dst)
	for i := range x {
		x[i] *= 4
	}
	return x
}

// TestOnDepsMatchesOnDep is the batch-boundary invisibility property:
// feeding a stream through OnDeps in arbitrary chunkings — including
// chunks beyond batchChunk — leaves the module in exactly the state a
// per-dependence OnDep loop produces, in float and quantized, under both
// built-in encoders and a custom one, with rate windows short enough
// that modes flip and the memo and kernels go stale mid-chunk, on a
// diverse stream and on a hot one the memo serves. The threshold
// sentinels pin a module in either mode. Weight-write cases change the
// weights through Network() at a random chunk boundary — a NaN, or a
// finite rewrite that flips every verdict — and others start from
// ±1e308 weights whose sums overflow to ±Inf (and to NaN under wide
// features), with the breaker on and off.
func TestOnDepsMatchesOnDep(t *testing.T) {
	custom := func(s deps.Sequence, _ []float64) []float64 {
		// Ignores dst: the batch path must copy the result into the
		// feature slab.
		return deps.EncodeDefault(s, nil)
	}
	// Weight writes through Network(), applied to both modules at a
	// random chunk boundary and followed by InvalidateVerdicts.
	nanWrite := func(m *Module, reg int) { m.Network().WriteRegister(reg, math.NaN()) }
	negateOutput := func(m *Module, _ int) {
		wo := m.Network().WO
		for i := range wo {
			wo[i] = -wo[i] // flips the verdict of every window
		}
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		setup    func(*Module, *rand.Rand) // run on both modules before the stream
		write    func(*Module, int)        // weight write at a random chunk boundary
		recovers bool                      // the fixture must trigger the breaker
	}{
		{name: "float", cfg: Config{N: 3, CheckInterval: 64}},
		{name: "float+pairhash", cfg: Config{N: 3, CheckInterval: 64, Encoder: deps.EncodePairHash}},
		{name: "float+custom", cfg: Config{N: 2, CheckInterval: 64, Encoder: custom}},
		{name: "float+N1", cfg: Config{N: 1, CheckInterval: 100}},
		{name: "float+nevertrain", cfg: Config{N: 3, CheckInterval: 64, MispredThreshold: NeverTrain}},
		{name: "float+alwaystrain", cfg: Config{N: 3, CheckInterval: 64, MispredThreshold: AlwaysTrain}},
		{name: "float+nan", cfg: Config{N: 3, CheckInterval: 64, MispredThreshold: NeverTrain}, write: nanWrite, recovers: true},
		{name: "float+nan+nobreaker", cfg: Config{N: 3, CheckInterval: 64, MispredThreshold: NeverTrain, RecoveryWindows: -1}, write: nanWrite},
		// A finite rewrite the module keeps: verdicts memoized under the
		// old weights must not be served under the new ones.
		{name: "float+rewrite", cfg: Config{N: 3, CheckInterval: 64, MispredThreshold: NeverTrain, RecoveryWindows: -1}, write: negateOutput},
		{name: "float+huge", cfg: Config{N: 3, CheckInterval: 64}, setup: hugeWeights},
		{name: "float+huge+wide", cfg: Config{N: 3, CheckInterval: 64, Encoder: wideEncoder}, setup: hugeWeights, recovers: true},
		{name: "float+huge+wide+nobreaker", cfg: Config{N: 3, CheckInterval: 64, Encoder: wideEncoder, RecoveryWindows: -1}, setup: hugeWeights},
		{name: "quant", cfg: Config{N: 3, CheckInterval: 64, Quantized: true}},
		{name: "quant+pairhash", cfg: Config{N: 3, CheckInterval: 64, Quantized: true, Encoder: deps.EncodePairHash}},
		{name: "quant+custom", cfg: Config{N: 2, CheckInterval: 64, Quantized: true, Encoder: custom}},
		{name: "quant+N1", cfg: Config{N: 1, CheckInterval: 100, Quantized: true}},
		// NaN weights do not compile: the batch path classifies in float.
		{name: "quant+nan", cfg: Config{N: 3, CheckInterval: 64, Quantized: true, MispredThreshold: NeverTrain}, write: nanWrite, recovers: true},
		{name: "quant+rewrite", cfg: Config{N: 3, CheckInterval: 64, Quantized: true, MispredThreshold: NeverTrain, RecoveryWindows: -1}, write: negateOutput},
	} {
		for _, stream := range []struct {
			name string // subtest prefix
			gen  func(int64, int) []deps.Dep
		}{{"", randDeps}, {"hot/", hotDeps}} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%sseed%d", tc.name, stream.name, seed), func(t *testing.T) {
					ref, got := quantModulePair(seed, tc.cfg)
					if tc.setup != nil {
						tc.setup(ref, rand.New(rand.NewSource(seed)))
						tc.setup(got, rand.New(rand.NewSource(seed)))
					}
					ds := stream.gen(seed, 4000)
					rng := rand.New(rand.NewSource(seed + 77))
					var chunks []int
					for left := len(ds); left > 0; {
						n := min(1+rng.Intn(700), left) // crosses batchChunk
						chunks = append(chunks, n)
						left -= n
					}
					// The poisoned chunk boundary, as a dependence index; -1
					// means none.
					poisonAt := -1
					if tc.write != nil {
						b := rng.Intn(len(chunks))
						poisonAt = 0
						for _, n := range chunks[:b] {
							poisonAt += n
						}
					}
					reg := rng.Intn(ref.Network().WeightCount())
					poison := func(m *Module) {
						tc.write(m, reg)
						m.InvalidateVerdicts()
					}

					for i, d := range ds {
						if i == poisonAt {
							poison(ref)
						}
						ref.OnDep(d)
					}
					off := 0
					for _, n := range chunks {
						if off == poisonAt {
							poison(got)
						}
						got.OnDeps(ds[off : off+n])
						off += n
					}
					if tc.recovers && ref.Stats().Recoveries == 0 {
						t.Fatal("fixture never tripped the breaker; the case exercises nothing")
					}
					moduleStateEqual(t, ref, got)
				})
			}
		}
	}
}

// TestOnDepsNonFiniteCost bounds what a breaker that cannot cure its
// outputs costs the batch path: under ±1e308 weights and wide features
// the restored snapshot overflows as the poisoned state did, so almost
// every dependence recovers. The chunk that meets a non-finite output
// hands its remainder to OnDep, so the batch path adds at most one
// speculative forward pass per dependence to what OnDep spends; handing
// over one dependence and re-entering the batch re-classified the rest
// of the chunk for each one, hundreds of passes per dependence.
func TestOnDepsNonFiniteCost(t *testing.T) {
	forwards := obs.Default.Counter("act_nn_forward_total", "")
	cfg := Config{N: 3, CheckInterval: 64, Encoder: wideEncoder}
	for seed := int64(1); seed <= 3; seed++ {
		ref, got := quantModulePair(seed, cfg)
		hugeWeights(ref, rand.New(rand.NewSource(seed)))
		hugeWeights(got, rand.New(rand.NewSource(seed)))
		ds := randDeps(seed, 4000)
		f0 := forwards.Value()
		for _, d := range ds {
			ref.OnDep(d)
		}
		f1 := forwards.Value()
		got.OnDeps(ds)
		f2 := forwards.Value()
		if ref.Stats().Recoveries < uint64(len(ds))/2 {
			t.Fatalf("seed %d: %d recoveries in %d deps; the fixture should recover on most", seed, ref.Stats().Recoveries, len(ds))
		}
		if refN, gotN := f1-f0, f2-f1; gotN > refN+uint64(len(ds)) {
			t.Fatalf("seed %d: OnDeps ran %d forward passes, OnDep %d; want at most %d", seed, gotN, refN, refN+uint64(len(ds)))
		}
		moduleStateEqual(t, ref, got)
	}
}

// TestOnDepsMemoGrowth drives a testing-mode module over a stream that
// cycles through more than 2^memoMaxBits distinct windows, so its memo
// grows through every step from 2^memoMinBits to 2^memoMaxBits buckets,
// and checks the result against per-dependence OnDep. Weights never
// change, so every entry stays current and only bucket conflicts drive
// the growth.
func TestOnDepsMemoGrowth(t *testing.T) {
	for _, quant := range []bool{false, true} {
		t.Run(fmt.Sprintf("quant=%v", quant), func(t *testing.T) {
			cfg := Config{N: 3, CheckInterval: 200, MispredThreshold: NeverTrain, RecoveryWindows: -1, Quantized: quant}
			ref, got := quantModulePair(9, cfg)
			cycle := randDeps(9, 1500)
			var ds []deps.Dep
			for i := 0; i < 16; i++ {
				ds = append(ds, cycle...)
			}
			distinct := map[[3]deps.Dep]bool{}
			for i := 2; i < len(ds); i++ {
				distinct[[3]deps.Dep{ds[i-2], ds[i-1], ds[i]}] = true
			}
			if len(distinct) <= 1<<memoMaxBits {
				t.Fatalf("stream has %d distinct windows, want more than %d", len(distinct), 1<<memoMaxBits)
			}
			var sizes []int
			for _, d := range ds {
				ref.OnDep(d)
			}
			for off := 0; off < len(ds); off += 256 {
				got.OnDeps(ds[off:min(off+256, len(ds))])
				if n := len(got.memo.stamp); len(sizes) == 0 || sizes[len(sizes)-1] != n {
					sizes = append(sizes, n)
				}
			}
			if want := []int{1 << 4, 1 << 6, 1 << 8, 1 << 10}; !reflect.DeepEqual(sizes, want) {
				t.Fatalf("memo sizes %v, want growth through %v", sizes, want)
			}
			moduleStateEqual(t, ref, got)
		})
	}
}

// TestOnDepsMemoStaysSmall pins what drives growth: a module whose few
// hot windows fit keeps its smallest table however often its weights
// change, because a miss on a stale entry is not a conflict.
func TestOnDepsMemoStaysSmall(t *testing.T) {
	cfg := Config{N: 3, MispredThreshold: NeverTrain, RecoveryWindows: -1}
	ref, got := quantModulePair(3, cfg)
	ds := make([]deps.Dep, 256)
	for i := range ds {
		ds[i] = deps.Dep{S: 0x1000 + uint64(i%2)*8, L: 0x8000 + uint64(i%2)*16}
	}
	for i := 0; i < 64; i++ {
		ref.InvalidateVerdicts()
		got.InvalidateVerdicts()
		for _, d := range ds {
			ref.OnDep(d)
		}
		got.OnDeps(ds)
	}
	if n := len(got.memo.stamp); n != 1<<memoMinBits {
		t.Fatalf("memo grew to %d buckets for two hot windows, want %d", n, 1<<memoMinBits)
	}
	moduleStateEqual(t, ref, got)
}

// TestOnDepsShortStreamMemo pins the memo's sizing to use: a fresh
// module that classifies one short failing run's worth of dependences
// (30, delivered in one call as Replay's final flush does) builds only
// the smallest table, and its first call allocates less than the next
// table size would take on its own.
func TestOnDepsShortStreamMemo(t *testing.T) {
	nIn := deps.InputLen(deps.EncodeDefault, 3)
	m := NewModule(nn.New(nIn, 8, nil), Config{N: 3})
	w := make([]float64, m.Network().WeightCount())
	w[len(w)-1] = 4 // always valid: nothing reaches the Debug Buffer
	if err := m.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	ds := make([]deps.Dep, 30)
	for i := range ds {
		ds[i] = deps.Dep{S: 0x1000 + uint64(i)*8, L: 0x8000 + uint64(i)*8}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.OnDeps(ds)
	runtime.ReadMemStats(&after)
	if got := len(m.memo.stamp); got != 1<<memoMinBits {
		t.Fatalf("memo has %d buckets after 30 dependences, want %d", got, 1<<memoMinBits)
	}
	const wsz = 3
	nextTable := uint64(1<<(memoMinBits+2)) * (8 + 8 + wsz*uint64(unsafe.Sizeof(deps.Dep{})))
	if got := after.TotalAlloc - before.TotalAlloc; got >= nextTable {
		t.Fatalf("first 30-dependence OnDeps allocated %d B, want less than the %d B of a 2^%d-bucket table", got, nextTable, memoMinBits+2)
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
// //act:noalloc annotation — in both precisions, on a stream whose
// windows repeat (memo hits) and on one whose windows are all new
// (every window encoded and classified).
func TestOnDepsSteadyStateAllocs(t *testing.T) {
	// distinct yields chunk i of a stream whose windows never repeat.
	distinct := make([]deps.Dep, 128*256)
	for i := range distinct {
		distinct[i] = deps.Dep{S: 0x1000 + uint64(i)*8, L: 0x8000 + uint64(i)*16}
	}
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
			// Warm-up on new windows grows the memo to its largest table.
			next := 0
			chunk := func() []deps.Dep {
				c := distinct[next*256 : (next+1)*256]
				next++
				return c
			}
			for len(m.memo.stamp) < 1<<memoMaxBits {
				m.OnDeps(chunk())
			}
			if n := testing.AllocsPerRun(100, func() {
				m.OnDeps(chunk())
			}); n > 0 {
				t.Fatalf("OnDeps over new windows allocates: %.1f allocs per 256 deps", n)
			}
		})
	}
}
