package rca

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/ranking"
)

// goldenVerdicts is the literal report behind testdata/verdicts.actv:
// one fully populated verdict and one without symbols or trajectory.
func goldenVerdicts() *Report {
	ranked := &ranking.Report{Total: 12, Pruned: 5, Ranked: []ranking.Candidate{
		{Matches: 3, Runs: 2, Entry: core.DebugEntry{
			Seq:    deps.Sequence{{S: 0x400100, L: 0x400200, Inter: true}, {S: 0x400300, L: 0x400400}},
			Output: 0.0625, At: 9, Mode: core.Testing, Proc: 1}},
		{Matches: 1, Entry: core.DebugEntry{
			Seq:    deps.Sequence{{S: 0x400500, L: 0x400600}},
			Output: 0.25, At: 4, Mode: core.Training}},
	}}
	return &Report{
		Bug: "golden-bug", CorrectRuns: 6, Ranked: ranked, Total: 12, Pruned: 5,
		Verdicts: []Verdict{
			{
				Rank: 1, Kind: KindAtomicity, KindName: KindAtomicity.String(),
				Scope: ScopeInter, ScopeName: ScopeInter.String(), LockAdjacent: true,
				Site: Site{Proc: 1, Thread: 2, StorePC: 0x400100, LoadPC: 0x400200,
					StoreSym: "T1:store", LoadSym: "T2:load"},
				Confidence: 0.875,
				Evidence: Evidence{
					Window:     []EvDep{{S: 0x400100, L: 0x400200, Inter: true}, {S: 0x400300, L: 0x400400}},
					Trajectory: []float64{0.5, 0.25, 0.0625},
					Matched:    3, Runs: 2, PrunedNeighbors: 4,
				},
			},
			{
				Rank: 2, Kind: KindSequential, KindName: KindSequential.String(),
				Scope: ScopeIntra, ScopeName: ScopeIntra.String(),
				Site:       Site{StorePC: 0x400500, LoadPC: 0x400600},
				Confidence: 0.5,
				Evidence: Evidence{
					Window:  []EvDep{{S: 0x400500, L: 0x400600}},
					Matched: 1,
				},
			},
		},
	}
}

// TestGoldenVerdicts pins the ACTV bytes: Save must reproduce the
// checked-in file, and Load must decode it to the literal report.
func TestGoldenVerdicts(t *testing.T) {
	want, err := os.ReadFile("testdata/verdicts.actv")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := goldenVerdicts().Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save output differs from testdata/verdicts.actv:\ngot  %x\nwant %x", buf.Bytes(), want)
	}
	got, err := Load(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, goldenVerdicts()) {
		t.Fatalf("golden decode:\ngot  %+v\nwant %+v", got, goldenVerdicts())
	}
}
