package core

import (
	"math"
	"math/rand"
	"testing"

	"act/internal/deps"
	"act/internal/nn"
	"act/internal/trace"
)

func recordOf(tid uint16, pc, addr uint64, store bool) trace.Record {
	return trace.Record{Tid: tid, PC: pc, Addr: addr, Store: store}
}

// trainedNet builds a network that accepts a given set of sequences and
// rejects everything else, by direct training.
func trainedNet(t *testing.T, n int, valid []deps.Sequence, invalid []deps.Sequence) *nn.Network {
	t.Helper()
	in := deps.InputLen(deps.EncodeDefault, n)
	var samples []nn.Sample
	for _, s := range valid {
		samples = append(samples, nn.Sample{X: deps.EncodeDefault(s, nil), Y: nn.TargetValid})
	}
	for _, s := range invalid {
		samples = append(samples, nn.Sample{X: deps.EncodeDefault(s, nil), Y: nn.TargetInvalid})
	}
	net, _ := nn.TrainNew(in, 8, samples, nn.FitConfig{Seed: 3, MaxEpochs: 4000, Patience: 4000})
	if miss := nn.Evaluate(net, samples); miss > 0 {
		t.Fatalf("fixture net failed to memorize (%v miss)", miss)
	}
	return net
}

func seqAt(base uint64, n int) deps.Sequence {
	s := make(deps.Sequence, n)
	for i := range s {
		s[i] = deps.Dep{S: base + uint64(i)*16, L: base + 8 + uint64(i)*16}
	}
	return s
}

func TestModuleFlagsInvalidSequence(t *testing.T) {
	n := 2
	valid := seqAt(0x1000, 4)
	bad := deps.Dep{S: 0xBAD0, L: valid[3].L}
	validWindows := []deps.Sequence{
		{{}, valid[0]}, {valid[0], valid[1]}, {valid[1], valid[2]}, {valid[2], valid[3]},
	}
	badWindow := deps.Sequence{valid[2], bad}
	net := trainedNet(t, n, validWindows, []deps.Sequence{badWindow})

	m := NewModule(net, Config{N: n})
	for _, d := range valid[:3] {
		if _, inv := m.OnDep(d); inv {
			t.Fatalf("valid dep %v flagged", d)
		}
	}
	if _, inv := m.OnDep(bad); !inv {
		t.Fatal("invalid dependence not flagged")
	}
	buf := m.DebugBuffer()
	if len(buf) != 1 || buf[0].Seq[len(buf[0].Seq)-1] != bad {
		t.Fatalf("debug buffer %v", buf)
	}
	if buf[0].Output >= 0.5 {
		t.Fatalf("logged output %v not negative-confidence", buf[0].Output)
	}
}

func TestDebugBufferRing(t *testing.T) {
	// A network rejecting everything fills the ring; oldest entries drop.
	net := nn.New(4, 4, rand.New(rand.NewSource(1)))
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = -5 // always invalid
	m := NewModule(net, Config{N: 2, DebugBufSize: 4, CheckInterval: 1 << 30})
	for i := uint64(0); i < 10; i++ {
		m.OnDep(deps.Dep{S: 0x100 + i, L: 0x200 + i})
	}
	buf := m.DebugBuffer()
	if len(buf) != 4 {
		t.Fatalf("ring size %d, want 4", len(buf))
	}
	// Oldest-first: the last entry must be the most recent dependence.
	last := buf[3].Seq[len(buf[3].Seq)-1]
	if last.S != 0x109 {
		t.Fatalf("newest entry %v", last)
	}
	m.ResetDebug()
	if len(m.DebugBuffer()) != 0 {
		t.Fatal("ResetDebug left entries")
	}
}

func TestModeSwitching(t *testing.T) {
	// Always-invalid net: in testing mode the misprediction rate is 100%,
	// so the module must flip to training; online learning then drives
	// the rate down and it flips back.
	net := nn.New(4, 6, rand.New(rand.NewSource(2)))
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = -2
	m := NewModule(net, Config{N: 2, CheckInterval: 50, MispredThreshold: 0.05, LearningRate: 0.5})
	if m.Mode() != Testing {
		t.Fatal("module must start in testing mode with weights")
	}
	// A small recurring set of dependences.
	ds := seqAt(0x4000, 4)
	for i := 0; i < 3000 && m.Mode() == Testing; i++ {
		m.OnDep(ds[i%len(ds)])
	}
	if m.Mode() != Training {
		t.Fatal("module never entered training mode at 100% misprediction")
	}
	for i := 0; i < 50_000 && m.Mode() == Training; i++ {
		m.OnDep(ds[i%len(ds)])
	}
	if m.Mode() != Testing {
		t.Fatal("module never returned to testing mode after learning")
	}
	if m.Stats().ModeSwitches < 2 {
		t.Fatalf("mode switches = %d", m.Stats().ModeSwitches)
	}
}

func TestTrainingModeStillLogs(t *testing.T) {
	net := nn.New(4, 4, rand.New(rand.NewSource(3)))
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = -5
	m := NewModule(net, Config{N: 2, LearningRate: 1e-9, CheckInterval: 1 << 30})
	m.ForceMode(Training)
	m.OnDep(deps.Dep{S: 1, L: 2})
	m.OnDep(deps.Dep{S: 3, L: 4})
	if len(m.DebugBuffer()) == 0 {
		t.Fatal("training mode must still log predicted-invalid sequences")
	}
	if m.Stats().TrainingDeps != 2 {
		t.Fatalf("training deps = %d", m.Stats().TrainingDeps)
	}
}

func TestSaveLoadWeights(t *testing.T) {
	net := nn.New(4, 4, rand.New(rand.NewSource(4)))
	m := NewModule(net, Config{N: 2})
	w := m.SaveWeights()
	m2 := NewModule(nn.New(4, 4, rand.New(rand.NewSource(99))), Config{N: 2})
	if err := m2.LoadWeights(w); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	if math.Abs(m.Network().Forward(x)-m2.Network().Forward(x)) > 1e-12 {
		t.Fatal("restored weights disagree")
	}
	if err := m2.LoadWeights(w[1:]); err == nil {
		t.Fatal("short weight vector accepted")
	}
}

func TestModuleConfigValidation(t *testing.T) {
	net := nn.New(4, 4, rand.New(rand.NewSource(5)))
	defer func() {
		if recover() == nil {
			t.Fatal("N > IGB size must panic")
		}
	}()
	NewModule(net, Config{N: 9, IGBSize: 5})
}

func TestThresholdSentinels(t *testing.T) {
	mk := func(thr float64) *Module {
		net := nn.New(4, 4, rand.New(rand.NewSource(6)))
		for i := range net.WO {
			net.WO[i] = 0
		}
		net.WO[len(net.WO)-1] = 4 // always valid: rate 0
		return NewModule(net, Config{N: 2, CheckInterval: 20, MispredThreshold: thr})
	}

	// AlwaysTrain: even a 0% misprediction rate must not bring the
	// module back to testing — the zero-value trap this sentinel fixes.
	m := mk(AlwaysTrain)
	m.ForceMode(Training)
	for i := uint64(0); i < 200; i++ {
		m.OnDep(deps.Dep{S: 1 + i%3, L: 9 + i%3})
	}
	if m.Mode() != Training {
		t.Fatal("AlwaysTrain module left training mode")
	}
	if m.Stats().TrainingDeps != 200 {
		t.Fatalf("training deps = %d, want 200", m.Stats().TrainingDeps)
	}

	// A testing AlwaysTrain module flips into training at the first
	// window regardless of its (perfect) rate.
	m = mk(AlwaysTrain)
	for i := uint64(0); i < 40; i++ {
		m.OnDep(deps.Dep{S: 1 + i%3, L: 9 + i%3})
	}
	if m.Mode() != Training {
		t.Fatal("AlwaysTrain module stayed in testing mode")
	}

	// NeverTrain: an always-invalid network (100% misprediction) must
	// stay in testing mode. The breaker is disabled so rollback does not
	// mask the mode decision under test.
	net := nn.New(4, 4, rand.New(rand.NewSource(7)))
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = -2
	m = NewModule(net, Config{N: 2, CheckInterval: 20, MispredThreshold: NeverTrain, RecoveryWindows: -1})
	for i := uint64(0); i < 200; i++ {
		m.OnDep(deps.Dep{S: 1 + i%3, L: 9 + i%3})
	}
	if m.Mode() != Testing {
		t.Fatal("NeverTrain module entered training mode")
	}

	// Explicit 0 still means the documented default.
	if got := (Config{}).withDefaults().MispredThreshold; got != DefaultMispredThreshold {
		t.Fatalf("zero threshold defaulted to %v", got)
	}
}

// healthyModule builds a testing-mode module with an accept-everything
// network and pushes it through one healthy window so a post-deployment
// snapshot exists.
func healthyModule(t *testing.T, interval int) *Module {
	t.Helper()
	net := nn.New(4, 6, rand.New(rand.NewSource(8)))
	for h := range net.WH {
		for i := range net.WH[h] {
			net.WH[h][i] = 0.1
		}
	}
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = 2 // sigmoid(2) ≈ 0.88: valid, not saturated
	m := NewModule(net, Config{N: 2, CheckInterval: interval, RecoveryWindows: 3})
	for i := uint64(0); i < uint64(interval); i++ {
		if _, inv := m.OnDep(deps.Dep{S: 2 + i%4, L: 100 + i%4}); inv {
			t.Fatal("fixture network rejected a dependence")
		}
	}
	if m.Stats().Snapshots < 2 { // construction + first healthy window
		t.Fatalf("snapshots = %d, want construction + healthy window", m.Stats().Snapshots)
	}
	return m
}

func TestRecoverFromNaNWeights(t *testing.T) {
	m := healthyModule(t, 50)
	good := m.SaveWeights()

	// An SEU leaves a NaN in weight memory: the very next dependence
	// must roll the module back, keep it in testing mode, and count the
	// recovery.
	m.Network().WriteRegister(0, math.NaN())
	m.Network().WriteRegister(len(good)-1, math.Inf(1))
	_, inv := m.OnDep(deps.Dep{S: 2, L: 100})
	if inv {
		t.Fatal("restored weights rejected a known-valid dependence")
	}
	if got := m.Stats().Recoveries; got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
	if m.Mode() != Testing {
		t.Fatalf("mode after recovery = %v", m.Mode())
	}
	after := m.SaveWeights()
	for i := range good {
		if after[i] != good[i] {
			t.Fatalf("weight %d not restored: %v vs %v", i, after[i], good[i])
		}
	}
}

func TestRecoverFromDivergedWeights(t *testing.T) {
	const interval = 50
	m := healthyModule(t, interval)
	good := m.SaveWeights()

	// Corrupt the output bias to a huge finite magnitude: every output
	// saturates against 0, the misprediction rate pins at 100%, and
	// learning cannot make progress through the dead sigmoid. Within
	// K = 3 windows the breaker must restore the snapshot and return the
	// module to testing mode.
	m.Network().WO[len(m.Network().WO)-1] = -1e6
	recoveredAt := -1
	for i := 0; i < 5*interval; i++ {
		m.OnDep(deps.Dep{S: 2 + uint64(i)%4, L: 100 + uint64(i)%4})
		if m.Stats().Recoveries > 0 {
			recoveredAt = i
			break
		}
	}
	if recoveredAt < 0 {
		t.Fatal("diverged module never recovered")
	}
	if recoveredAt >= 4*interval {
		t.Fatalf("recovery took %d deps, want within K=3 windows plus slack", recoveredAt)
	}
	if m.Mode() != Testing {
		t.Fatalf("mode after recovery = %v", m.Mode())
	}
	after := m.SaveWeights()
	for i := range good {
		if after[i] != good[i] {
			t.Fatalf("weight %d not restored", i)
		}
	}
	// And the module is functional again.
	if _, inv := m.OnDep(deps.Dep{S: 2, L: 100}); inv {
		t.Fatal("recovered module rejects valid dependences")
	}
}

func TestBreakerSparesLegitimateRetraining(t *testing.T) {
	// An always-invalid network that CAN learn (healthy gradients): the
	// module flips to training, improves every window, and must converge
	// without the breaker yanking it back to the unlearned snapshot.
	net := nn.New(4, 6, rand.New(rand.NewSource(2)))
	for i := range net.WO {
		net.WO[i] = 0
	}
	net.WO[len(net.WO)-1] = -2
	m := NewModule(net, Config{N: 2, CheckInterval: 50, LearningRate: 0.5, RecoveryWindows: 3})
	ds := seqAt(0x4000, 4)
	for i := 0; i < 50_000 && (m.Mode() == Training || i < 3000); i++ {
		m.OnDep(ds[i%len(ds)])
	}
	if m.Mode() != Testing {
		t.Fatal("module never converged back to testing")
	}
	if got := m.Stats().Recoveries; got != 0 {
		t.Fatalf("breaker fired %d times during legitimate retraining", got)
	}
}

func TestRecoveryDisabled(t *testing.T) {
	net := nn.New(4, 4, rand.New(rand.NewSource(9)))
	m := NewModule(net, Config{N: 2, CheckInterval: 10, RecoveryWindows: -1})
	m.Network().WriteRegister(0, math.NaN())
	for i := uint64(0); i < 100; i++ {
		m.OnDep(deps.Dep{S: 1 + i, L: 2 + i})
	}
	if m.Stats().Recoveries != 0 {
		t.Fatal("disabled breaker still recovered")
	}
}

func TestWeightBinary(t *testing.T) {
	wb := NewWeightBinary(4, 4)
	if wb.Has(0) {
		t.Fatal("fresh binary claims weights")
	}
	wb.Patch(2, []float64{1, 2, 3})
	if !wb.Has(2) || wb.Has(1) {
		t.Fatal("chkwt semantics broken")
	}
	got := wb.Get(2)
	got[0] = 99 // must not alias the stored copy
	if wb.Get(2)[0] != 1 {
		t.Fatal("Get aliases internal storage")
	}
	wb.PatchAll(3, []float64{7})
	if th := wb.Threads(); len(th) != 3 || th[0] != 0 || th[2] != 2 {
		t.Fatalf("threads %v, want [0 1 2]", th)
	}
}

func TestTrackerUnseenThreadStartsTraining(t *testing.T) {
	wb := AlwaysValidBinary(4, 10, 1) // only thread 0 has weights
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}})
	if tk.Module(0).Mode() != Testing {
		t.Fatal("thread 0 with weights should start testing")
	}
	if tk.Module(1).Mode() != Training {
		t.Fatal("thread 1 without weights should start training")
	}
}

func TestTrackerShutdownPatchesBinary(t *testing.T) {
	wb := AlwaysValidBinary(4, 10, 1)
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}})
	tk.OnRecord(recordOf(1, 0x10, 0x1000, true))
	tk.OnRecord(recordOf(1, 0x14, 0x1000, false))
	tk.Shutdown()
	if !wb.Has(1) {
		t.Fatal("shutdown did not patch thread 1's learned weights")
	}
}

func TestTeachInvalid(t *testing.T) {
	wb := AlwaysValidBinary(4, 10, 1)
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}})
	m := tk.Module(0)
	bad := deps.Sequence{{S: 0x111, L: 0x222}, {S: 0x333, L: 0x444, Inter: true}}
	if _, inv := m.OnDep(bad[1]); inv {
		t.Skip("already rejected; nothing to teach")
	}
	if !m.TeachInvalid(bad) {
		t.Fatal("TeachInvalid failed to make the network reject the sequence")
	}
	// Short sequences are padded like the IGB would.
	if !m.TeachInvalid(deps.Sequence{{S: 0x999, L: 0xAAA}}) {
		t.Fatal("TeachInvalid with a short sequence failed")
	}
}

func TestPerThreadWeightsDiverge(t *testing.T) {
	// Two untrained threads learn different dependence streams online;
	// after Shutdown the patched binary holds different weights.
	wb := NewWeightBinary(4, 6)
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2, CheckInterval: 50}, Seed: 5})
	for i := uint64(0); i < 2000; i++ {
		tk.Module(0).OnDep(deps.Dep{S: 0x100 + i%3, L: 0x200 + i%3})
		tk.Module(1).OnDep(deps.Dep{S: 0x900 + i%7, L: 0xA00 + i%7, Inter: true})
	}
	tk.Shutdown()
	w0, w1 := wb.Get(0), wb.Get(1)
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("threads with different streams ended with identical weights")
	}
}

func TestAlwaysValidBinary(t *testing.T) {
	wb := AlwaysValidBinary(4, 10, 2)
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}})
	m := tk.Module(0)
	for i := uint64(0); i < 20; i++ {
		if _, inv := m.OnDep(deps.Dep{S: i * 7, L: i * 13}); inv {
			t.Fatal("always-valid binary rejected a dependence")
		}
	}
}

// TestDeployInitialWeights pins a module's weights at deployment: a
// thread the binary covers starts from exactly the shipped vector, bit
// for bit, in testing mode; a thread it does not cover starts from the
// network seeded with seed+tid, in training mode. Parallel replay's
// determinism (DESIGN.md §10) rests on the second.
func TestDeployInitialWeights(t *testing.T) {
	const nIn, nHidden, seed = 4, 3, 77
	rng := rand.New(rand.NewSource(5))
	shipped := make([]float64, nHidden*(nIn+1)+nHidden+1)
	for i := range shipped {
		shipped[i] = 10 * rng.NormFloat64()
	}
	shipped[0] = math.Copysign(0, -1)
	shipped[1] = math.SmallestNonzeroFloat64
	shipped[2] = -math.MaxFloat64
	wb := NewWeightBinary(nIn, nHidden)
	wb.Patch(1, shipped)
	tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}, Seed: seed})

	sameBits := func(tid int, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("thread %d: %d weights, want %d", tid, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("thread %d weight %d = %v, want %v", tid, i, got[i], want[i])
			}
		}
	}
	m := tk.Module(1)
	sameBits(1, m.SaveWeights(), shipped)
	if m.Mode() != Testing {
		t.Errorf("shipped thread starts in %v, want testing", m.Mode())
	}
	for _, tid := range []int{0, 2, 9} {
		m := tk.Module(tid)
		sameBits(tid, m.SaveWeights(), nn.New(nIn, nHidden, rand.New(rand.NewSource(seed+int64(tid)))).Flatten(nil))
		if m.Mode() != Training {
			t.Errorf("thread %d absent from the binary starts in %v, want training", tid, m.Mode())
		}
	}
}

// alwaysInvalidBinary mirrors AlwaysValidBinary with the output bias on
// the reject side: every sequence is predicted invalid and logged.
func alwaysInvalidBinary(nIn, nHidden, nThreads int) *WeightBinary {
	wb := NewWeightBinary(nIn, nHidden)
	w := make([]float64, nHidden*(nIn+1)+nHidden+1)
	w[len(w)-1] = -4 // output bias: sigmoid(-4) ≈ 0.02
	wb.PatchAll(nThreads, w)
	return wb
}

func TestDebugBuffersDeterministicOrder(t *testing.T) {
	feed := func() *Tracker {
		wb := alwaysInvalidBinary(4, 10, 3)
		tk := NewTracker(wb, TrackerConfig{Module: Config{N: 2}})
		// Interleave threads so per-module streams accumulate out of
		// global order.
		for i := 0; i < 12; i++ {
			tid := uint16(2 - i%3)
			tk.OnRecord(recordOf(tid, 0x10+uint64(i)*4, 0x1000+uint64(tid)*8, true))
			tk.OnRecord(recordOf(tid, 0x100+uint64(i)*4, 0x1000+uint64(tid)*8, false))
		}
		return tk
	}
	tk := feed()
	got := tk.DebugBuffers()
	if len(got) == 0 {
		t.Fatal("always-invalid deployment logged nothing")
	}
	for i, e := range got {
		if i > 0 {
			prev := got[i-1]
			if e.Proc < prev.Proc || (e.Proc == prev.Proc && e.At < prev.At) {
				t.Fatalf("entry %d out of (proc, insertion) order: %v after %v", i, e, prev)
			}
		}
	}
	// A fresh identical deployment must produce the identical log, and
	// re-reading must not perturb it.
	again := feed().DebugBuffers()
	if len(again) != len(got) {
		t.Fatalf("rerun length %d, want %d", len(again), len(got))
	}
	for i := range got {
		if got[i].Seq.Key() != again[i].Seq.Key() || got[i].Proc != again[i].Proc || got[i].At != again[i].At {
			t.Fatalf("rerun entry %d differs: %v vs %v", i, got[i], again[i])
		}
	}

	tk.ResetDebug()
	if left := tk.DebugBuffers(); len(left) != 0 {
		t.Fatalf("ResetDebug left %d entries", len(left))
	}
}
