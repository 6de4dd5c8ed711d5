package core_test

import (
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/trace"
	"act/internal/workloads"
)

// TestReplayWarmAllocs pins a warm Tracker.Replay call at zero
// allocations, for an empty trace (the replay engine's per-call cost
// alone) and for the radix kernel's trace on a converged deployment, in
// float and quantized. Per-call garbage on a monitor replaying short
// executions back to back is what the garbage collector pays for.
func TestReplayWarmAllocs(t *testing.T) {
	w, err := workloads.KernelByName("radix")
	if err != nil {
		t.Fatal(err)
	}
	radix, _ := trace.Collect(w.Build(1), w.Sched(1))
	for _, quant := range []bool{false, true} {
		name := "float"
		if quant {
			name = "quant"
		}
		for _, tc := range []struct {
			name string
			tr   *trace.Trace
		}{
			{"empty", &trace.Trace{}},
			{"radix", radix},
		} {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				nIn := deps.InputLen(deps.EncodeDefault, 3)
				tk := core.NewTracker(core.AlwaysValidBinary(nIn, 8, 4),
					core.TrackerConfig{Module: core.Config{N: 3, Quantized: quant}})
				// Warm-up: module creation, staging buffers, memo and
				// slab growth, kernel compile.
				tk.Replay(radix)
				tk.Replay(radix)
				if n := testing.AllocsPerRun(50, func() { tk.Replay(tc.tr) }); n > 0 {
					t.Fatalf("warm Replay of %d records allocates %.1f times per call", len(tc.tr.Records), n)
				}
			})
		}
	}
}
