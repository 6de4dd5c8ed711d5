// Checkpoint codec and restore invariants: a restored tracker is
// indistinguishable from the one that was exported (same bytes on
// re-export, same observables on continued replay), and resume refuses
// state from a different run.
package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"act/internal/deps"
	"act/internal/nn"
	"act/internal/pipeline"
	"act/internal/trace"
)

// splitReplay replays tr up to cursor on a fresh tracker built by mk
// and returns the tracker (using the staged sequential path, like
// Replay does).
func splitReplay(mk func() *Tracker, tr *trace.Trace, cursor int) *Tracker {
	t := mk()
	prev := t.ext.OnDep
	t.ext.OnDep = t.stageDep
	for _, r := range tr.Records[:cursor] {
		t.OnRecord(r)
	}
	t.flushStaged()
	t.ext.OnDep = prev
	return t
}

func TestCheckpointRoundTrip(t *testing.T) {
	tr := randTrace(11, 3, 4000)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	cfg := TrackerConfig{Module: Config{N: 2, CheckInterval: 100}, Seed: 5}
	mk := func() *Tracker { return NewTracker(NewWeightBinary(nIn, 6), cfg) }

	cursor := len(tr.Records) / 2
	src := splitReplay(mk, tr, cursor)
	img, err := src.EncodeCheckpoint(tr, cursor)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Decoding must reproduce the exported state exactly.
	hdr, st, extra, err := DecodeCheckpoint(img)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if int(hdr.Cursor) != cursor || hdr.Program != tr.Program || len(extra) != 0 {
		t.Fatalf("header mismatch: %+v", hdr)
	}
	if want := src.ExportState(); !reflect.DeepEqual(*st, want) {
		t.Fatalf("decoded state differs from exported state")
	}

	// A restored tracker re-encodes to the identical image (save→load→
	// save is a fixed point) ...
	dst := mk()
	gotCursor, _, err := dst.RestoreCheckpoint(img, tr)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if gotCursor != cursor {
		t.Fatalf("restored cursor %d, want %d", gotCursor, cursor)
	}
	img2, err := dst.EncodeCheckpoint(tr, cursor)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(img, img2) {
		t.Fatalf("restore+re-encode changed the image (%d vs %d bytes)", len(img), len(img2))
	}

	// ... and finishing the trace on it matches an uninterrupted run.
	full := splitReplay(mk, tr, len(tr.Records))
	prev := dst.ext.OnDep
	dst.ext.OnDep = dst.stageDep
	for _, r := range tr.Records[cursor:] {
		dst.OnRecord(r)
	}
	dst.flushStaged()
	dst.ext.OnDep = prev
	if !reflect.DeepEqual(full.DebugBuffers(), dst.DebugBuffers()) {
		t.Fatalf("debug buffers diverge after resume")
	}
	if fs, ds := full.Stats(), dst.Stats(); fs != ds {
		t.Fatalf("stats diverge after resume:\nfull %+v\nrest %+v", fs, ds)
	}
}

func TestCheckpointRefusesForeignState(t *testing.T) {
	tr := randTrace(11, 3, 2000)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	cfg := TrackerConfig{Module: Config{N: 2}, Seed: 5}
	src := NewTracker(NewWeightBinary(nIn, 6), cfg)
	src.Replay(tr)
	img, err := src.EncodeCheckpoint(tr, len(tr.Records))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	cases := []struct {
		name string
		mk   func() *Tracker
		tr   *trace.Trace
	}{
		{"different seed", func() *Tracker {
			c := cfg
			c.Seed = 6
			return NewTracker(NewWeightBinary(nIn, 6), c)
		}, tr},
		{"different config", func() *Tracker {
			c := cfg
			c.Module.CheckInterval = 50
			return NewTracker(NewWeightBinary(nIn, 6), c)
		}, tr},
		{"different granularity", func() *Tracker {
			c := cfg
			c.Granularity = 64
			return NewTracker(NewWeightBinary(nIn, 6), c)
		}, tr},
		{"different trace", func() *Tracker {
			return NewTracker(NewWeightBinary(nIn, 6), cfg)
		}, randTrace(12, 3, 2000)},
	}
	for _, tc := range cases {
		if _, _, err := tc.mk().RestoreCheckpoint(img, tc.tr); err == nil {
			t.Errorf("%s: restore accepted foreign checkpoint", tc.name)
		}
	}

	// A tracker that has already replayed is not fresh.
	if _, _, err := src.RestoreCheckpoint(img, tr); err == nil {
		t.Error("restore accepted a non-fresh tracker")
	}
}

func TestCheckpointExtraSections(t *testing.T) {
	tr := randTrace(3, 2, 500)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	mk := func() *Tracker {
		return NewTracker(NewWeightBinary(nIn, 6), TrackerConfig{Module: Config{N: 2}, Seed: 1})
	}
	src := mk()
	src.Replay(tr)

	payload := []byte("stage result bytes")
	img, err := src.EncodeCheckpoint(tr, len(tr.Records), pipeline.Section{Kind: 64, Data: payload})
	if err != nil {
		t.Fatalf("encode with extra: %v", err)
	}
	_, extra, err := mk().RestoreCheckpoint(img, tr)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if len(extra) != 1 || extra[0].Kind != 64 || !bytes.Equal(extra[0].Data, payload) {
		t.Fatalf("extra sections did not round-trip: %+v", extra)
	}

	// Kinds in the core-owned or terminator range are rejected.
	for _, kind := range []byte{1, 63, 0xFF} {
		if _, err := src.EncodeCheckpoint(tr, 0, pipeline.Section{Kind: kind}); err == nil {
			t.Errorf("kind %d accepted as extra section", kind)
		}
	}
}

func TestReplayCheckpointedWritesAndResumes(t *testing.T) {
	tr := randTrace(21, 3, 6000)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	cfg := TrackerConfig{Module: Config{N: 2, CheckInterval: 100}, Seed: 9}
	mk := func() *Tracker { return NewTracker(NewWeightBinary(nIn, 6), cfg) }
	path := filepath.Join(t.TempDir(), "replay.ckpt")

	// Abort after the second checkpoint — a simulated kill.
	killed := mk()
	st, err := killed.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Interval: 1000, AbortAfter: 2})
	if !errors.Is(err, ErrReplayAborted) {
		t.Fatalf("want ErrReplayAborted, got %v", err)
	}
	if st.Checkpoints != 2 || st.Resumed {
		t.Fatalf("aborted status %+v", st)
	}

	// Resume on a fresh tracker finishes the trace.
	resumed := mk()
	st, err = resumed.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Interval: 1000, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !st.Resumed || st.ResumedFrom != 2000 {
		t.Fatalf("resume status %+v", st)
	}

	full := mk()
	full.Replay(tr)
	if !reflect.DeepEqual(full.DebugBuffers(), resumed.DebugBuffers()) {
		t.Fatalf("debug buffers diverge after kill+resume")
	}

	// Rerun over the completed image: resumes straight to the end,
	// writing nothing new.
	rerun := mk()
	st, err = rerun.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Interval: 1000, Resume: true})
	if err != nil {
		t.Fatalf("rerun: %v", err)
	}
	if !st.Resumed || st.ResumedFrom != len(tr.Records) || st.Checkpoints != 0 {
		t.Fatalf("rerun status %+v", st)
	}
	if !reflect.DeepEqual(full.DebugBuffers(), rerun.DebugBuffers()) {
		t.Fatalf("debug buffers diverge after instant resume")
	}
}

func TestReplayCheckpointedLenientOnCorruptFile(t *testing.T) {
	tr := randTrace(4, 2, 1000)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	mk := func() *Tracker {
		return NewTracker(NewWeightBinary(nIn, 6), TrackerConfig{Module: Config{N: 2}, Seed: 1})
	}
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := pipeline.WriteCheckpoint(path, []byte("ACTK garbage that is not a checkpoint")); err != nil {
		t.Fatal(err)
	}
	tk := mk()
	st, err := tk.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Resume: true})
	if err != nil {
		t.Fatalf("lenient resume errored: %v", err)
	}
	if st.Resumed || st.Reason == "" {
		t.Fatalf("corrupt file should force a fresh run with a reason, got %+v", st)
	}
	full := mk()
	full.Replay(tr)
	if !reflect.DeepEqual(full.DebugBuffers(), tk.DebugBuffers()) {
		t.Fatalf("fresh-after-corrupt run diverges from plain replay")
	}
}

// TestReplayCheckpointedRefusesOtherClassifier resumes a checkpoint
// taken under the default sigmoid table and encoder on trackers that
// classify differently — another table, or a custom encoder of the same
// width — and expects a fresh replay with the fingerprint reason: a run
// must not finish under a different classifier than it started with.
func TestReplayCheckpointedRefusesOtherClassifier(t *testing.T) {
	tr := randTrace(31, 3, 3000)
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	base := TrackerConfig{Module: Config{N: 2, CheckInterval: 100, Quantized: true}, Seed: 3}
	path := filepath.Join(t.TempDir(), "classifier.ckpt")
	src := NewTracker(NewWeightBinary(nIn, 6), base)
	if _, err := src.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Interval: 1000, AbortAfter: 1}); !errors.Is(err, ErrReplayAborted) {
		t.Fatalf("want ErrReplayAborted, got %v", err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	inverted := func(s deps.Sequence, dst []float64) []float64 {
		x := deps.EncodeDefault(s, dst)
		for i := range x {
			x[i] = 1 - x[i]
		}
		return x
	}
	for _, tc := range []struct {
		name string
		mod  func(*Config)
	}{
		{"lut", func(c *Config) { c.LUT = nn.NewSigmoidLUT(200, 7) }},
		{"encoder", func(c *Config) { c.Encoder = inverted }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Each resume gets its own copy: a refused resume replays
			// fresh and overwrites the file with its own final image.
			path := filepath.Join(t.TempDir(), "classifier.ckpt")
			if err := pipeline.WriteCheckpoint(path, img); err != nil {
				t.Fatal(err)
			}
			cfg := base
			tc.mod(&cfg.Module)
			tk := NewTracker(NewWeightBinary(nIn, 6), cfg)
			st, err := tk.ReplayCheckpointed(tr, nil, CheckpointConfig{Path: path, Interval: 1 << 30, Resume: true})
			if err != nil {
				t.Fatalf("lenient resume errored: %v", err)
			}
			if st.Resumed || !strings.Contains(st.Reason, "fingerprint mismatch") {
				t.Fatalf("resume under another classifier: %+v, want a fresh run with the fingerprint reason", st)
			}
			full := NewTracker(NewWeightBinary(nIn, 6), cfg)
			full.Replay(tr)
			if !reflect.DeepEqual(full.DebugBuffers(), tk.DebugBuffers()) || full.Stats() != tk.Stats() {
				t.Fatal("fresh-after-refusal run diverges from plain replay")
			}
		})
	}
}
