package ranking

import (
	"strings"
	"testing"

	"act/internal/core"
	"act/internal/deps"
)

func dep(s, l uint64) deps.Dep { return deps.Dep{S: s, L: l} }

func entry(out float64, ds ...deps.Dep) core.DebugEntry {
	return core.DebugEntry{Seq: deps.Sequence(ds), Output: out}
}

// correctSet builds the Section III-D example's Correct Set:
// (A1,A2,A3) and (B1,B2,B3).
func correctSet() *deps.SeqSet {
	ss := deps.NewSeqSet(3)
	ss.Add(deps.Sequence{dep(0xA1, 1), dep(0xA2, 2), dep(0xA3, 3)})
	ss.Add(deps.Sequence{dep(0xB1, 1), dep(0xB2, 2), dep(0xB3, 3)})
	return ss
}

// TestPaperExample reproduces the worked example of Section III-D:
// Debug Buffer = {(A1,A2,A4), (B1,B2,B3), (A1,A5,A6)}. Pruning removes
// (B1,B2,B3); (A1,A2,A4) with 2 matches ranks above (A1,A5,A6) with 1.
func TestPaperExample(t *testing.T) {
	debug := []core.DebugEntry{
		entry(0.3, dep(0xA1, 1), dep(0xA5, 2), dep(0xA6, 3)),
		entry(0.2, dep(0xB1, 1), dep(0xB2, 2), dep(0xB3, 3)),
		entry(0.4, dep(0xA1, 1), dep(0xA2, 2), dep(0xA4, 3)),
	}
	rep := Rank(debug, correctSet())
	if rep.Pruned != 1 {
		t.Fatalf("pruned = %d, want 1 (the fully-matching sequence)", rep.Pruned)
	}
	if len(rep.Ranked) != 2 {
		t.Fatalf("candidates = %d, want 2", len(rep.Ranked))
	}
	if rep.Ranked[0].Matches != 2 || rep.Ranked[0].Entry.Seq[2] != dep(0xA4, 3) {
		t.Fatalf("rank 1 = %+v, want (A1,A2,A4) with 2 matches", rep.Ranked[0])
	}
	if rep.Ranked[1].Matches != 1 {
		t.Fatalf("rank 2 matches = %d, want 1", rep.Ranked[1].Matches)
	}
}

func TestTieBreakByOutput(t *testing.T) {
	// Two candidates with equal matches: the more negative network
	// output (smaller value) ranks first.
	debug := []core.DebugEntry{
		entry(0.45, dep(0xA1, 1), dep(0xC1, 2), dep(0xC2, 3)),
		entry(0.05, dep(0xA1, 1), dep(0xD1, 2), dep(0xD2, 3)),
	}
	rep := Rank(debug, correctSet())
	if rep.Ranked[0].Entry.Output != 0.05 {
		t.Fatalf("rank 1 output = %v, want the most negative (0.05)", rep.Ranked[0].Entry.Output)
	}
}

func TestDuplicatesCollapse(t *testing.T) {
	e := entry(0.3, dep(0xA1, 1), dep(0xA5, 2), dep(0xA6, 3))
	worse := e
	worse.Output = 0.1
	rep := Rank([]core.DebugEntry{e, worse, e}, correctSet())
	if len(rep.Ranked) != 1 {
		t.Fatalf("candidates = %d, want 1 after dedup", len(rep.Ranked))
	}
	if rep.Ranked[0].Entry.Output != 0.1 {
		t.Fatal("dedup must keep the most negative output")
	}
	if rep.Pruned != 2 {
		t.Fatalf("pruned = %d (duplicates)", rep.Pruned)
	}
}

// TestRankKeepsHashCollisions ranks two distinct intra-thread
// dependences whose 64-bit Sequence.Hash values are equal: duplicate
// collapse is by exact identity, so both survive as candidates.
func TestRankKeepsHashCollisions(t *testing.T) {
	a := deps.Sequence{dep(0x6f57468c9c6980fb, 0x3486af19c7b8696e)}
	b := deps.Sequence{dep(0x7ccd3fb39fe6fc67, 0x271cd626c43715f2)}
	if a.Hash() != 0x04937d4ee5fe6d7f || b.Hash() != a.Hash() {
		t.Fatalf("fixture no longer collides: %#x, %#x", a.Hash(), b.Hash())
	}
	rep := Rank([]core.DebugEntry{{Seq: a, Output: 0.2}, {Seq: b, Output: 0.1}}, deps.NewSeqSet(1))
	if len(rep.Ranked) != 2 || rep.Pruned != 0 {
		t.Fatalf("ranked %d, pruned %d; want 2 candidates, 0 pruned", len(rep.Ranked), rep.Pruned)
	}
}

func TestFilterPct(t *testing.T) {
	rep := Rank(nil, correctSet())
	if rep.FilterPct() != 0 {
		t.Fatal("empty report filter pct")
	}
	debug := []core.DebugEntry{
		entry(0.2, dep(0xB1, 1), dep(0xB2, 2), dep(0xB3, 3)),
		entry(0.2, dep(0xA1, 1), dep(0xA5, 2), dep(0xA6, 3)),
	}
	rep = Rank(debug, correctSet())
	if rep.FilterPct() != 50 {
		t.Fatalf("filter = %v%%, want 50", rep.FilterPct())
	}
}

func TestRankOfAndHelpers(t *testing.T) {
	debug := []core.DebugEntry{
		entry(0.4, dep(0xA1, 1), dep(0xA2, 2), dep(0xA4, 3)),
		entry(0.3, dep(0xA1, 1), dep(0xA5, 2), dep(0xA6, 3)),
	}
	rep := Rank(debug, correctSet())
	if r := rep.RankOf(ContainsDep(0xA6, 3)); r != 2 {
		t.Fatalf("ContainsDep rank = %d, want 2", r)
	}
	if r := rep.RankOf(EndsWithDep(0xA4, 3)); r != 1 {
		t.Fatalf("EndsWithDep rank = %d, want 1", r)
	}
	if r := rep.RankOf(ContainsDep(0xFF, 0xFF)); r != 0 {
		t.Fatalf("missing dep rank = %d, want 0", r)
	}
	if EndsWithDep(1, 2)(nil) {
		t.Fatal("EndsWithDep on empty sequence")
	}
}

func TestWriteOutput(t *testing.T) {
	debug := []core.DebugEntry{
		entry(0.4, dep(0xA1, 1), dep(0xA2, 2), dep(0xA4, 3)),
		entry(0.3, dep(0xA1, 1), dep(0xA5, 2), dep(0xA6, 3)),
	}
	rep := Rank(debug, correctSet())
	var sb strings.Builder
	rep.Write(&sb, 1)
	out := sb.String()
	if !strings.Contains(out, "matches=2") || !strings.Contains(out, "1 more") {
		t.Fatalf("report rendering:\n%s", out)
	}
}

func TestRankingStableAcrossRuns(t *testing.T) {
	debug := []core.DebugEntry{
		entry(0.4, dep(0xA1, 1), dep(0xC1, 2), dep(0xC2, 3)),
		entry(0.4, dep(0xA1, 1), dep(0xD1, 2), dep(0xD2, 3)),
		entry(0.4, dep(0xA1, 1), dep(0xE1, 2), dep(0xE2, 3)),
	}
	a := Rank(debug, correctSet())
	b := Rank(debug, correctSet())
	for i := range a.Ranked {
		if a.Ranked[i].Entry.Seq.Key() != b.Ranked[i].Entry.Seq.Key() {
			t.Fatal("unstable ranking across identical inputs")
		}
	}
}

func TestRankWithStrategies(t *testing.T) {
	// A late-diverging root (2 matches) plus a no-match chaos entry with
	// a more negative output: the strategies must order them differently.
	root := entry(0.4, dep(0xA1, 1), dep(0xA2, 2), dep(0xBAD, 3))
	chaos := entry(0.01, dep(0xF1, 1), dep(0xF2, 2), dep(0xF3, 3))
	debug := []core.DebugEntry{chaos, root}
	cs := correctSet()

	first := func(s Strategy) float64 {
		return RankWith(debug, cs, s).Ranked[0].Entry.Output
	}
	if first(MostMatched) != 0.4 {
		t.Error("MostMatched should put the root (2 matches) first")
	}
	if first(MostMismatched) != 0.01 {
		t.Error("MostMismatched should put the chaos (0 matches) first")
	}
	if first(OutputOnly) != 0.01 {
		t.Error("OutputOnly should put the most negative output first")
	}
	// Rank keeps the paper's default.
	if Rank(debug, cs).Ranked[0].Entry.Output != 0.4 {
		t.Error("Rank default must be MostMatched")
	}
}
