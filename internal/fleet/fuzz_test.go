package fleet

import (
	"bytes"
	"testing"

	"act/internal/wire"
)

// FuzzLoadState throws arbitrary bytes at the collector-state decoder,
// the path a rollup node runs on every MsgState frame it receives. It
// must never panic, must reject damage with an error, and an accepted
// state must round-trip: merged into an empty collector and exported,
// it decodes again to the same export.
func FuzzLoadState(f *testing.F) {
	f.Add(goldenCollector().ExportState())
	c := NewCollector(CollectorConfig{})
	c.Ingest(mkBatch("f", 101, 0, wire.OutcomeFailing, failingEntries(0)...))
	c.Ingest(mkBatch("c", 201, 0, wire.OutcomeCorrect, correctEntries()...))
	state := c.ExportState()
	f.Add(state)
	f.Add(state[:len(state)/2])
	f.Add(NewCollector(CollectorConfig{}).ExportState())
	f.Add([]byte("ACTS"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		a := NewCollector(CollectorConfig{})
		if _, err := a.MergeState(data); err != nil {
			return
		}
		first := a.ExportState()
		b := NewCollector(CollectorConfig{})
		if _, err := b.MergeState(first); err != nil {
			t.Fatalf("re-merging an exported state: %v", err)
		}
		if !bytes.Equal(b.ExportState(), first) {
			t.Fatal("exported state does not round-trip")
		}
	})
}
