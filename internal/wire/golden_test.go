package wire

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"

	"act/internal/core"
	"act/internal/deps"
)

// goldenBatch is the literal batch behind testdata/batch.actw.
func goldenBatch() *Batch {
	return &Batch{
		Agent:   "host-golden",
		Run:     42,
		Seq:     3,
		Outcome: OutcomeFailing,
		Stats: core.Stats{Deps: 1000, Sequences: 990, PredictedInvalid: 7, Updates: 5,
			ModeSwitches: 2, TrainingDeps: 40, Snapshots: 3, Recoveries: 1},
		Entries: []core.DebugEntry{
			{Seq: deps.Sequence{{S: 0x400100, L: 0x400200, Inter: true}, {S: 0x400300, L: 0x400400}},
				Output: 0.125, At: 77, Mode: core.Testing, Proc: 2},
			{Seq: deps.Sequence{}, Output: -0.5, At: 1, Mode: core.Training},
		},
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenBatchFrame pins a batch stream's bytes (prologue plus one
// MsgBatch frame) and decodes them back to the literal batch.
func TestGoldenBatchFrame(t *testing.T) {
	want := readGolden(t, "batch.actw")
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteBatch(goldenBatch()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("batch stream differs from testdata/batch.actw:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	rd := NewReader(bytes.NewReader(want), 0)
	got, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenBatch()) {
		t.Fatalf("golden decode:\ngot  %+v\nwant %+v", got, goldenBatch())
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want EOF after the golden frame, got %v", err)
	}
	if rep := rd.Report(); rep.Corrupt() || rep.Frames != 1 {
		t.Fatalf("clean golden stream reported %+v", rep)
	}
}

// TestGoldenStateFrame pins a MsgState stream's bytes and decodes them.
func TestGoldenStateFrame(t *testing.T) {
	want := readGolden(t, "state.actw")
	payload, err := EncodeStateMsg(nil, "shard-golden", []byte("opaque state bytes"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFrame(MsgState, payload); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("state stream differs from testdata/state.actw:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	typ, p, err := NewReader(bytes.NewReader(want), 0).NextFrame()
	if err != nil || typ != MsgState {
		t.Fatalf("golden state frame: type %v, err %v", typ, err)
	}
	shard, state, err := DecodeStateMsg(p)
	if err != nil || shard != "shard-golden" || string(state) != "opaque state bytes" {
		t.Fatalf("golden state decode: shard %q, state %q, err %v", shard, state, err)
	}
}
