package ranking

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"act/internal/core"
	"act/internal/deps"
)

// goldenReport is the literal report behind testdata/report.actr.
func goldenReport() *Report {
	return &Report{Total: 12, Pruned: 5, Ranked: []Candidate{
		{Matches: 3, Runs: 2, Entry: core.DebugEntry{
			Seq:    deps.Sequence{{S: 0x400100, L: 0x400200, Inter: true}, {S: 0x400300, L: 0x400400}},
			Output: 0.0625, At: 9, Mode: core.Testing, Proc: 1}},
		{Matches: 1, Entry: core.DebugEntry{
			Seq:    deps.Sequence{{S: 0x400500, L: 0x400600}},
			Output: 0.25, At: 4, Mode: core.Training}},
	}}
}

// TestGoldenReport pins the ACTR bytes: Save must reproduce the
// checked-in file, and LoadReport must decode it to the literal report.
func TestGoldenReport(t *testing.T) {
	want, err := os.ReadFile("testdata/report.actr")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenReport().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save output differs from testdata/report.actr:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	got, err := LoadReport(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenReport()) {
		t.Fatalf("golden decode:\ngot  %+v\nwant %+v", got, goldenReport())
	}
}
