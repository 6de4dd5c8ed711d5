// Package ranking implements ACT's offline postprocessing (Section
// III-D). After a failure, the Debug Buffer contents are pruned against
// a Correct Set of sequences extracted from fresh correct executions —
// the failure itself is never reproduced — and the surviving sequences
// are ranked by how many of their RAW dependences match the Correct Set
// (descending), ties broken by the most negative network output. The
// top-ranked sequence is the most likely root cause.
package ranking

import (
	"fmt"
	"io"
	"sort"

	"act/internal/core"
	"act/internal/deps"
)

// Candidate is one ranked Debug Buffer sequence.
type Candidate struct {
	Entry   core.DebugEntry
	Matches int // matched RAW dependences against the Correct Set
	// Runs counts the distinct failing runs that logged this sequence —
	// filled by fleet aggregation (cross-run ranking); 0 in single-run
	// reports.
	Runs int
}

// Report is the outcome of pruning and ranking.
type Report struct {
	Total  int // debug entries examined
	Pruned int // entries removed (present in the Correct Set, or duplicates)
	Ranked []Candidate
}

// FilterPct returns the percentage of debug entries removed by pruning,
// the paper's "Filter (%)" column.
func (r *Report) FilterPct() float64 {
	if r.Total == 0 {
		return 0
	}
	return 100 * float64(r.Pruned) / float64(r.Total)
}

// Strategy selects the ordering of the surviving candidates.
type Strategy int

// Ranking strategies. MostMatched is the paper's choice (Section III-D):
// the sequence agreeing longest with correct behaviour marks where
// execution left the rails. MostMismatched is the alternative the paper
// argues against (by the time many dependences mismatch, the program has
// long been off the rails), and OutputOnly ranks purely by network
// confidence — both exist for the ablation.
const (
	MostMatched Strategy = iota
	MostMismatched
	OutputOnly
)

// Rank prunes the debug entries against the Correct Set and ranks the
// survivors with the paper's strategy. Duplicate sequences collapse into
// one candidate keeping the most negative output.
func Rank(debug []core.DebugEntry, correct *deps.SeqSet) *Report {
	return RankWith(debug, correct, MostMatched)
}

// RankWith is Rank with an explicit strategy. Duplicates are detected
// by exact Key bytes, encoded into one reused buffer as deps.SeqSet
// does, so only a sequence seen for the first time allocates its key.
func RankWith(debug []core.DebugEntry, correct *deps.SeqSet, strategy Strategy) *Report {
	rep := &Report{Total: len(debug)}
	byKey := make(map[string]int) // index into rep.Ranked
	var buf []byte
	for _, e := range debug {
		if correct.Contains(e.Seq) {
			rep.Pruned++
			continue
		}
		buf = e.Seq.AppendKey(buf[:0])
		if i, ok := byKey[string(buf)]; ok {
			rep.Pruned++ // duplicate collapses
			if c := &rep.Ranked[i]; e.Output < c.Entry.Output {
				c.Entry = e
			}
			continue
		}
		byKey[string(buf)] = len(rep.Ranked)
		rep.Ranked = append(rep.Ranked, Candidate{Entry: e, Matches: correct.MatchCount(e.Seq)})
	}
	rep.Resort(strategy)
	return rep
}

// less orders two candidates under a strategy.
func less(strategy Strategy, a, b Candidate) bool {
	switch strategy {
	case MostMismatched:
		if a.Matches != b.Matches {
			return a.Matches < b.Matches
		}
	case OutputOnly:
		// fall through to the output tie-break below
	default: // MostMatched
		if a.Matches != b.Matches {
			return a.Matches > b.Matches
		}
	}
	return a.Entry.Output < b.Entry.Output
}

// Resort reorders the ranked candidates under a (possibly different)
// strategy, using the Matches and Output values already computed — how
// a persisted report is re-ranked without re-deriving the Correct Set.
func (r *Report) Resort(strategy Strategy) {
	sort.SliceStable(r.Ranked, func(i, j int) bool {
		return less(strategy, r.Ranked[i], r.Ranked[j])
	})
}

// WeightByRuns stable-sorts the ranked candidates by their cross-run
// failing-occurrence count, descending, preserving the strategy order
// within equal counts: a sequence logged by many independent failing
// runs but few correct ones is stronger evidence than any single run's
// network output. Single-run reports (all Runs zero) are unaffected.
func (r *Report) WeightByRuns() {
	sort.SliceStable(r.Ranked, func(i, j int) bool {
		return r.Ranked[i].Runs > r.Ranked[j].Runs
	})
}

// RankOf returns the 1-based rank of the first candidate satisfying
// match, or 0 if none does. Experiments use it with a predicate that
// recognizes the known root-cause dependence.
func (r *Report) RankOf(match func(deps.Sequence) bool) int {
	for i, c := range r.Ranked {
		if match(c.Entry.Seq) {
			return i + 1
		}
	}
	return 0
}

// ContainsDep returns a predicate matching sequences whose final
// dependence pairs the given store and load instruction addresses — the
// usual way a known root cause is identified.
func ContainsDep(s, l uint64) func(deps.Sequence) bool {
	return func(seq deps.Sequence) bool {
		for _, d := range seq {
			if d.S == s && d.L == l {
				return true
			}
		}
		return false
	}
}

// EndsWithDep matches sequences whose newest dependence is s→l.
func EndsWithDep(s, l uint64) func(deps.Sequence) bool {
	return func(seq deps.Sequence) bool {
		if len(seq) == 0 {
			return false
		}
		d := seq[len(seq)-1]
		return d.S == s && d.L == l
	}
}

// Write renders the report as a table for programmer inspection.
func (r *Report) Write(w io.Writer, limit int) {
	fmt.Fprintf(w, "debug entries: %d, pruned: %d (%.1f%%), candidates: %d\n",
		r.Total, r.Pruned, r.FilterPct(), len(r.Ranked))
	for i, c := range r.Ranked {
		if limit > 0 && i >= limit {
			fmt.Fprintf(w, "... %d more\n", len(r.Ranked)-limit)
			break
		}
		runs := ""
		if c.Runs > 0 {
			runs = fmt.Sprintf(" runs=%d", c.Runs)
		}
		fmt.Fprintf(w, "%3d. matches=%d output=%.4f%s %s\n", i+1, c.Matches, c.Entry.Output, runs, c.Entry.Seq)
	}
}
