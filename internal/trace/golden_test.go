package trace

import (
	"bytes"
	"os"
	"reflect"
	"testing"
)

// goldenTrace is the literal trace behind testdata/v3.actt (written by
// Write) and testdata/v2.actt (the plain format, read-only).
func goldenTrace() *Trace {
	return &Trace{Program: "golden", Seed: -7, Steps: 1234, Records: []Record{
		{Seq: 1, PC: 0x400100, Addr: 0x1000, Tid: 0, Store: true},
		{Seq: 2, PC: 0x400108, Addr: 0x1000, Tid: 1},
		{Seq: 3, PC: 0x400110, Addr: 0x7ffe0010, Tid: 1, Stack: true},
		{Seq: 3, PC: 0x400110, Addr: 0x7ffe0010, Tid: 1, Store: true, Stack: true},
		{Seq: 1<<40 + 5, PC: 0xdeadbeef, Addr: 0xffffffffffff0000, Tid: 65535, Store: true},
	}}
}

// TestGoldenV3 pins the framed format's bytes: Write must reproduce the
// checked-in file exactly, and reading it must yield the literal trace.
func TestGoldenV3(t *testing.T) {
	want, err := os.ReadFile("testdata/v3.actt")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenTrace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Write output differs from testdata/v3.actt:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	got, rep, err := ReadReport(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt() || rep.Declared != 5 || rep.Recovered != 5 {
		t.Fatalf("clean golden stream reported %+v", rep)
	}
	if !reflect.DeepEqual(got, goldenTrace()) {
		t.Fatalf("golden decode:\ngot  %+v\nwant %+v", got, goldenTrace())
	}
}
