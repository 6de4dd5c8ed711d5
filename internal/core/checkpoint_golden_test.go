package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"act/internal/deps"
	"act/internal/pipeline"
)

// goldenCheckpoint is the literal state behind testdata/golden.actk:
// header, extractor, two modules (one with a breaker snapshot and a
// full Debug Buffer entry, one bare) and one stage section.
func goldenCheckpoint() (CheckpointHeader, *TrackerState, []pipeline.Section) {
	hdr := CheckpointHeader{Cursor: 3, Records: 9, TraceID: 0x0123456789abcdef,
		Seed: -2, CfgFP: 0xfedcba9876543210, Program: "golden"}
	st := &TrackerState{
		Extractor: deps.ExtractorState{
			Granularity: 64,
			Writers: []deps.LastWriter{
				{Granule: 0x40, StorePC: 0x400100, Tid: 0},
				{Granule: 0x80, StorePC: 0x400180, Tid: 3},
			},
			Windows: []deps.WindowState{
				{Tid: 0, Window: []deps.Dep{{S: 0x400100, L: 0x400200, Inter: true}}},
				{Tid: 3},
			},
		},
		Modules: []ModuleState{
			{
				Tid: 0, Mode: Training, Gen: 4,
				Weights: []float64{0.5, -0.25, 1.5},
				Snap:    []float64{0.5, -0.25, 1},
				IGB:     []deps.Dep{{S: 1, L: 2}, {S: 3, L: 4, Inter: true}},
				Debug: []DebugEntry{{
					Seq:    deps.Sequence{{S: 0x400100, L: 0x400200, Inter: true}},
					Output: 0.125, At: 17, Mode: Testing, Proc: 0,
					Traj: []float64{0.75, 0.125},
				}},
				Traj:    []float64{0.75, 0.125},
				Invalid: 1, Window: 20, SatWind: 2, BadWind: -1,
				LastRate: 0.0625,
				Stats: Stats{Deps: 30, Sequences: 28, PredictedInvalid: 1, Updates: 6,
					ModeSwitches: 1, TrainingDeps: 8, Snapshots: 2, Recoveries: 0,
					CacheHits: 5, CacheMisses: 23},
			},
			{Tid: 3, Mode: Testing, Weights: []float64{0}},
		},
	}
	extra := []pipeline.Section{{Kind: 64, Data: []byte("stage result")}}
	return hdr, st, extra
}

// TestGoldenCheckpoint pins the ACTK bytes: file framing plus the core
// section codec. Encoding the literal state must reproduce the
// checked-in image, and decoding the image must yield the literal state.
func TestGoldenCheckpoint(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.actk")
	if err != nil {
		t.Fatal(err)
	}
	hdr, st, extra := goldenCheckpoint()
	secs := []pipeline.Section{
		{Kind: ckptKindHeader, Data: encodeHeader(hdr)},
		{Kind: ckptKindExtractor, Data: encodeExtractor(st.Extractor)},
	}
	for i := range st.Modules {
		secs = append(secs, pipeline.Section{Kind: ckptKindModule, Data: encodeModule(&st.Modules[i])})
	}
	img := pipeline.AppendCheckpoint(nil, append(secs, extra...))
	if !bytes.Equal(img, want) {
		t.Fatalf("checkpoint image differs from testdata/golden.actk:\ngot  %x\nwant %x", img, want)
	}
	gotHdr, gotSt, gotExtra, err := DecodeCheckpoint(want)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header:\ngot  %+v\nwant %+v", gotHdr, hdr)
	}
	if !reflect.DeepEqual(gotSt, st) {
		t.Fatalf("state:\ngot  %+v\nwant %+v", gotSt, st)
	}
	if !reflect.DeepEqual(gotExtra, extra) {
		t.Fatalf("extra sections:\ngot  %+v\nwant %+v", gotExtra, extra)
	}
}
