package fleet

import (
	"bytes"
	"os"
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/wire"
)

// goldenCollector ingests literal batches behind testdata/state.acts: a
// failing run, a correct run sharing one sequence with it, a duplicate
// delivery, and an outcome-unknown run whose evidence stays pending.
func goldenCollector() *Collector {
	shared := deps.Sequence{{S: 0x400100, L: 0x400200, Inter: true}}
	bug := deps.Sequence{{S: 0x400300, L: 0x400400, Inter: true}, {S: 0x400500, L: 0x400600}}
	later := deps.Sequence{{S: 0x400700, L: 0x400800}}
	c := NewCollector(CollectorConfig{})
	for _, b := range []*wire.Batch{
		{Agent: "f0", Run: 101, Outcome: wire.OutcomeFailing, Entries: []core.DebugEntry{
			{Seq: bug, Output: -1.5, At: 7, Proc: 1},
			{Seq: shared, Output: -0.5, At: 9},
		}},
		{Agent: "c0", Run: 201, Outcome: wire.OutcomeCorrect, Entries: []core.DebugEntry{
			{Seq: shared, Output: -0.75, At: 3, Mode: core.Training},
		}},
		{Agent: "c0", Run: 201, Outcome: wire.OutcomeCorrect},
		{Agent: "u0", Run: 301, Outcome: wire.OutcomeUnknown, Entries: []core.DebugEntry{
			{Seq: later, Output: -0.25, At: 2, Proc: 2},
		}},
	} {
		c.Ingest(b)
	}
	return c
}

// TestGoldenState pins the ACTS bytes: exporting the literal collector
// must reproduce the checked-in state, and merging that state into an
// empty collector must export it unchanged.
func TestGoldenState(t *testing.T) {
	want, err := os.ReadFile("testdata/state.acts")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenCollector().ExportState(); !bytes.Equal(got, want) {
		t.Fatalf("ExportState differs from testdata/state.acts:\ngot  %x\nwant %x", got, want)
	}
	c := NewCollector(CollectorConfig{})
	if _, err := c.MergeState(want); err != nil {
		t.Fatal(err)
	}
	if got := c.ExportState(); !bytes.Equal(got, want) {
		t.Fatalf("merged golden state re-exports differently:\ngot  %x\nwant %x", got, want)
	}
}
