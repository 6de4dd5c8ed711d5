package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"act/internal/deps"
	"act/internal/trace"
)

// randTrace builds a random multi-threaded memory trace over a small
// address pool, dense enough that threads repeatedly read each other's
// stores (inter-thread RAW dependences on every replay).
func randTrace(seed int64, threads, records int) *trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &trace.Trace{}
	for i := 0; i < records; i++ {
		tr.Records = append(tr.Records, trace.Record{
			Tid:   uint16(rng.Intn(threads)),
			PC:    0x400000 + uint64(rng.Intn(64))*4,
			Addr:  0x10000 + uint64(rng.Intn(32))*8,
			Store: rng.Intn(3) == 0,
		})
	}
	return tr
}

// equivCase replays one trace sequentially and in parallel on separate,
// identically configured trackers and asserts bit-identical observable
// state: DebugBuffers, Stats, and the weights Shutdown patches back.
func equivCase(t *testing.T, tr *trace.Trace, mkBinary func() *WeightBinary, cfg TrackerConfig, pcfg ParallelConfig) {
	t.Helper()
	seqBin, parBin := mkBinary(), mkBinary()
	seq := NewTracker(seqBin, cfg)
	par := NewTracker(parBin, cfg)

	seq.Replay(tr)
	par.ReplayParallel(tr, pcfg)

	if ss, ps := seq.Stats(), par.Stats(); ss != ps {
		t.Fatalf("stats diverge:\nseq %+v\npar %+v", ss, ps)
	}
	sd, pd := seq.DebugBuffers(), par.DebugBuffers()
	if !reflect.DeepEqual(sd, pd) {
		t.Fatalf("debug buffers diverge: seq %d entries, par %d", len(sd), len(pd))
	}
	seq.Shutdown()
	par.Shutdown()
	if st, pt := seqBin.Threads(), parBin.Threads(); !reflect.DeepEqual(st, pt) {
		t.Fatalf("patched thread sets diverge: %v vs %v", st, pt)
	}
	for _, tid := range seqBin.Threads() {
		if !reflect.DeepEqual(seqBin.Get(tid), parBin.Get(tid)) {
			t.Fatalf("thread %d weights diverge after shutdown", tid)
		}
	}
}

// TestReplayParallelMatchesSequential is the equivalence property test:
// over random traces, parallel replay must be bit-identical to
// sequential replay — with trained modules in testing mode, with
// untrained modules learning online, and with the quantized kernel.
func TestReplayParallelMatchesSequential(t *testing.T) {
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	mixedBinary := func() *WeightBinary {
		wb := AlwaysValidBinary(nIn, 6, 8)
		full := NewWeightBinary(nIn, 6)
		for _, tid := range wb.Threads() {
			if tid%2 == 0 {
				full.Patch(tid, wb.Get(tid))
			}
		}
		return full
	}
	cases := []struct {
		name     string
		mkBinary func() *WeightBinary
		quant    bool
		interval int
	}{
		// Converged deployment: every module in testing mode.
		{"testing", func() *WeightBinary { return AlwaysValidBinary(nIn, 6, 8) }, false, 0},
		// Unseen threads: default weights, online training throughout.
		{"training", func() *WeightBinary { return NewWeightBinary(nIn, 6) }, false, 0},
		// Mixed: half the threads have weights, half train online.
		{"mixed", mixedBinary, false, 0},
		// Fixed-point inference: the batched kernel classifies testing
		// stretches; sequential replay stages, parallel replay batches.
		{"quant", func() *WeightBinary { return AlwaysValidBinary(nIn, 6, 8) }, true, 0},
		// Quantized with mode churn: a short rate window forces
		// testing↔training flips mid-replay, so compiled kernels go
		// stale mid-batch and the float fallback engages and re-arms.
		{"quant+churn", mixedBinary, true, 50},
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				tr := randTrace(seed, 8, 3000)
				cfg := TrackerConfig{Module: Config{
					N: 2, Quantized: tc.quant, CheckInterval: tc.interval,
				}, Seed: seed}
				// Small batches force many channel hand-offs, including
				// partial final batches.
				equivCase(t, tr, tc.mkBinary, cfg, ParallelConfig{Batch: 7, Depth: 2})
			})
		}
	}
}

// TestReplayParallelRepeated checks that back-to-back ReplayParallel
// calls on one tracker keep accumulating state exactly like repeated
// sequential replays (the fan-out swap must restore the OnDep hook).
func TestReplayParallelRepeated(t *testing.T) {
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	tr := randTrace(9, 4, 1500)
	cfg := TrackerConfig{Module: Config{N: 2}}
	seq := NewTracker(AlwaysValidBinary(nIn, 6, 4), cfg)
	par := NewTracker(AlwaysValidBinary(nIn, 6, 4), cfg)
	for i := 0; i < 3; i++ {
		seq.Replay(tr)
		par.ReplayParallel(tr, ParallelConfig{})
	}
	// A sequential replay after a parallel one must also work.
	seq.Replay(tr)
	par.Replay(tr)
	if ss, ps := seq.Stats(), par.Stats(); ss != ps {
		t.Fatalf("stats diverge after repeated replays:\nseq %+v\npar %+v", ss, ps)
	}
}

// TestWeightBinaryConcurrent exercises Patch/Get/Has/Threads from many
// goroutines; the -race run in CI is the actual assertion.
func TestWeightBinaryConcurrent(t *testing.T) {
	wb := NewWeightBinary(4, 2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			w := []float64{float64(g), 1, 2, 3}
			for i := 0; i < 200; i++ {
				tid := (g + i) % 16
				wb.Patch(tid, w)
				if got := wb.Get(tid); got != nil && len(got) != len(w) {
					t.Errorf("Get(%d) returned %d weights, want %d", tid, len(got), len(w))
					return
				}
				wb.Has(tid)
				wb.Threads()
			}
		}(g)
	}
	wg.Wait()
	// Get hands out copies: mutating one must not corrupt the binary.
	a := wb.Get(0)
	a[0] = 999
	if b := wb.Get(0); b[0] == 999 {
		t.Fatal("Get returned a live reference into the binary")
	}
}

// TestTrackerRejectsWideTid pins the tid-widening fix: ids beyond the
// 16-bit wire format are an explicit error, never a silent truncation
// that would alias two threads onto one module.
func TestTrackerRejectsWideTid(t *testing.T) {
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	tr := NewTracker(AlwaysValidBinary(nIn, 6, 2), TrackerConfig{Module: Config{N: 2}})

	if _, err := tr.ModuleOf(-1); err == nil {
		t.Error("ModuleOf(-1) succeeded")
	}
	if _, err := tr.ModuleOf(MaxTid + 1); err == nil {
		t.Error("ModuleOf(65536) succeeded; truncation would alias it onto thread 0")
	}
	if _, err := tr.ModuleOf(70000); err == nil {
		t.Error("ModuleOf(70000) succeeded")
	}
	m0, err := tr.ModuleOf(0)
	if err != nil {
		t.Fatalf("ModuleOf(0): %v", err)
	}
	mMax, err := tr.ModuleOf(MaxTid)
	if err != nil {
		t.Fatalf("ModuleOf(MaxTid): %v", err)
	}
	if m0 == mMax {
		t.Error("distinct tids share a module")
	}
	defer func() {
		if recover() == nil {
			t.Error("Module(70000) did not panic")
		}
	}()
	tr.Module(70000)
}

// TestOnDepSteadyStateAllocs pins the zero-allocation classification
// hot path: a converged testing-mode module classifying dependences must
// not allocate, in float or quantized.
func TestOnDepSteadyStateAllocs(t *testing.T) {
	for _, quant := range []bool{false, true} {
		name := "float"
		if quant {
			name = "quant"
		}
		t.Run(name, func(t *testing.T) {
			nIn := deps.InputLen(deps.EncodeDefault, 3)
			wb := AlwaysValidBinary(nIn, 8, 1)
			tr := NewTracker(wb, TrackerConfig{Module: Config{N: 3, Quantized: quant}})
			m := tr.Module(0)
			ds := make([]deps.Dep, 64)
			for i := range ds {
				ds[i] = deps.Dep{S: 0x1000 + uint64(i)*16, L: 0x2000 + uint64(i)*16}
			}
			// Warm up: fill the window ring and compile the kernel.
			for _, d := range ds {
				m.OnDep(d)
			}
			if n := testing.AllocsPerRun(100, func() {
				for _, d := range ds {
					m.OnDep(d)
				}
			}); n > 0 {
				t.Fatalf("steady-state OnDep allocates: %.1f allocs per 64 deps", n)
			}
		})
	}
}
