package rca

import (
	"slices"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/isa"
	"act/internal/program"
	"act/internal/ranking"
)

// Classification geometry, in instruction indices. These are tuned
// against the calibration harness (harness.go): in the real-bug
// workloads an atomicity violation's check and use loads sit within a
// few instructions of each other (apache, mysql2, and the injected
// bugs all land at ΔL=3), while an order violation's consecutive
// communications are loads from distinct program phases (pbzip2:
// ΔL=7, same-thread stores 15 apart). Widening loadRadius trades
// order recall for atomicity recall; the harness makes the trade
// measurable.
const (
	// loadRadius bounds how far apart two local loads may sit and still
	// count as the check/use pair of one atomic-intent region.
	loadRadius = 5
	// storeRadius bounds how far apart two remote stores from the SAME
	// remote thread may sit and still look like one interleaving
	// update (memcached's item/flags stores sit 13 apart; pbzip2's
	// order-violation stores 15). Stores from different remote threads
	// (apache: concurrent workers hitting one refcount) are exempt —
	// distinct writers racing into a check/use pair is the atomicity
	// footprint itself.
	storeRadius = 13
	// lockRadius is how many instructions around a suspected site are
	// scanned for synchronization ops when program provenance is known.
	lockRadius = 6
	// markRadius is how far back from a PC the symbolizer will walk to
	// the nearest program mark before giving up.
	markRadius = 64
	// neighborWindow is how close (in dependence indices) another Debug
	// Buffer entry must be to count as a pruned near-miss neighbor.
	neighborWindow = 8
)

// Provenance is the diagnosis context surrounding a ranked report.
// Every field is optional: Analyze degrades gracefully — no Program
// means PC-only sites and no lock adjacency, no Debug slice means no
// pruned-neighbor counts. A rollup node working from wire-decoded
// entries alone still gets kind, scope, site addresses, and confidence.
type Provenance struct {
	// Program is the workload the failing run executed, used for mark
	// symbolization and lock adjacency.
	Program *program.Program
	// Debug is the full Debug Buffer the report was ranked from,
	// including entries pruning later removed.
	Debug []core.DebugEntry
	// CorrectRuns is how many correct executions built the Correct Set.
	CorrectRuns int
	// Bug names the workload or campaign, for the report header.
	Bug string
	// Limit caps how many ranked candidates receive verdicts; 0 means
	// a default of 10. Verdict 1 is always the top-ranked candidate.
	Limit int
}

// DefaultLimit is how many candidates receive verdicts when Provenance
// does not say otherwise.
const DefaultLimit = 10

// Report is a full RCA report: the ranked evidence plus one verdict per
// leading candidate.
type Report struct {
	// Bug names the diagnosed workload or campaign.
	Bug string `json:"bug,omitempty"`
	// CorrectRuns is how many correct executions backed the pruning.
	CorrectRuns int `json:"correct_runs,omitempty"`
	// Ranked is the underlying ranking report the verdicts index into.
	// Serialized in the binary form (Save), not in JSON.
	Ranked *ranking.Report `json:"-"`
	// Total/Pruned mirror the ranking counts for JSON consumers.
	Total  int `json:"total"`
	Pruned int `json:"pruned"`
	// Verdicts covers the leading candidates, best first.
	Verdicts []Verdict `json:"verdicts"`
}

// Top returns the leading verdict, or nil for an empty report.
func (r *Report) Top() *Verdict {
	if len(r.Verdicts) == 0 {
		return nil
	}
	return &r.Verdicts[0]
}

// Analyze derives a verdict for each leading candidate of rep. It is
// pure and deterministic: the same report and provenance always yield
// the same verdicts, so reports can be regenerated and diffed.
func Analyze(rep *ranking.Report, prov Provenance) *Report {
	limit := prov.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	out := &Report{
		Bug:         prov.Bug,
		CorrectRuns: prov.CorrectRuns,
		Ranked:      rep,
		Total:       rep.Total,
		Pruned:      rep.Pruned,
	}
	n := len(rep.Ranked)
	if n > limit {
		n = limit
	}
	for i := 0; i < n; i++ {
		out.Verdicts = append(out.Verdicts, verdictFor(rep, i, prov))
	}
	return out
}

// verdictFor builds the verdict for ranked candidate i.
func verdictFor(rep *ranking.Report, i int, prov Provenance) Verdict {
	c := rep.Ranked[i]
	kind, scope, pivot := classify(c.Entry.Seq)
	v := Verdict{
		Rank:      i + 1,
		Kind:      kind,
		KindName:  kind.String(),
		Scope:     scope,
		ScopeName: scope.String(),
		Site:      siteOf(c.Entry, pivot, prov.Program),
		Evidence: Evidence{
			Window:          evWindow(c.Entry.Seq),
			Trajectory:      c.Entry.Traj,
			Matched:         c.Matches,
			Runs:            c.Runs,
			PrunedNeighbors: prunedNeighbors(rep, c.Entry, prov.Debug),
		},
	}
	if prov.Program != nil && (kind == KindOrder || kind == KindAtomicity) {
		v.LockAdjacent = lockAdjacent(prov.Program, pivot)
	}
	v.Confidence = confidence(rep, i, kind)
	return v
}

// classify derives the defect shape of one dependence window and
// returns the pivot: the newest usable dependence, which names the
// suspected site. Zero dependences (S==L==0) are front-padding from
// early execution and carry no signal.
//
// The shape test follows the interleaving-pattern argument from the
// concurrency-bug ML literature: an atomicity violation leaves a
// check-then-use footprint — two distinct loads close together in the
// reader, both fed remotely, the remote stores either from different
// writers or from one nearby code region (the update that slipped into
// the atomic-intent region) — while an order violation's remote store
// arrives without that local load pairing.
func classify(seq deps.Sequence) (DefectKind, Scope, deps.Dep) {
	pivot := deps.Dep{}
	pivotAt := -1
	any := false
	for i, d := range seq {
		if d.S == 0 && d.L == 0 {
			continue
		}
		any = true
		if d.Inter {
			pivot, pivotAt = d, i
		}
	}
	if !any {
		return KindUnknown, ScopeUnknown, deps.Dep{}
	}
	if pivotAt < 0 {
		// No communication crossed threads anywhere in the window:
		// whatever failed, it failed sequentially.
		for i := len(seq) - 1; i >= 0; i-- {
			if seq[i].S != 0 || seq[i].L != 0 {
				return KindSequential, ScopeIntra, seq[i]
			}
		}
	}
	pt := isa.ThreadOf(pivot.S)
	pl, ps := isa.IndexOf(pivot.L), isa.IndexOf(pivot.S)
	for i, d := range seq {
		if i == pivotAt || !d.Inter || (d.S == 0 && d.L == 0) {
			continue
		}
		// The check/use pair: a different load, nearby. Both loads run
		// on the window's own thread by construction.
		if d.L == pivot.L || abs(isa.IndexOf(d.L)-pl) > loadRadius {
			continue
		}
		if isa.ThreadOf(d.S) != pt || abs(isa.IndexOf(d.S)-ps) <= storeRadius {
			return KindAtomicity, ScopeInter, pivot
		}
	}
	return KindOrder, ScopeInter, pivot
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// siteOf localizes the suspected component from the pivot dependence.
func siteOf(e core.DebugEntry, pivot deps.Dep, prog *program.Program) Site {
	if pivot.S == 0 && pivot.L == 0 {
		return Site{Proc: e.Proc}
	}
	s := Site{
		Proc:    e.Proc,
		Thread:  isa.ThreadOf(pivot.L),
		StorePC: pivot.S,
		LoadPC:  pivot.L,
	}
	if prog != nil {
		s.StoreSym = symbolize(prog, pivot.S)
		s.LoadSym = symbolize(prog, pivot.L)
	}
	return s
}

// symbolize names the nearest mark at or before pc in the same thread,
// within markRadius instructions. Marks live in a map; ties (several
// marks on one PC) break toward the lexicographically smallest name so
// the result never depends on map iteration order.
func symbolize(prog *program.Program, pc uint64) string {
	t := isa.ThreadOf(pc)
	bestName := ""
	var bestPC uint64
	for name, mpc := range prog.Marks {
		if isa.ThreadOf(mpc) != t || mpc > pc {
			continue
		}
		if isa.IndexOf(pc)-isa.IndexOf(mpc) > markRadius {
			continue
		}
		if bestName == "" || mpc > bestPC || (mpc == bestPC && name < bestName) {
			bestName, bestPC = name, mpc
		}
	}
	if bestName == "" {
		return ""
	}
	if d := isa.IndexOf(pc) - isa.IndexOf(bestPC); d > 0 {
		return fmtSymOffset(bestName, d)
	}
	return bestName
}

func fmtSymOffset(name string, d int) string {
	// Small positive offsets only (bounded by markRadius); avoid fmt to
	// keep this trivially allocation-cheap for bulk symbolization.
	buf := make([]byte, 0, len(name)+4)
	buf = append(buf, name...)
	buf = append(buf, '+')
	if d >= 10 {
		buf = append(buf, byte('0'+d/10))
	}
	buf = append(buf, byte('0'+d%10))
	return string(buf)
}

// lockAdjacent scans the instructions around the pivot's store and load
// for synchronization ops.
func lockAdjacent(prog *program.Program, pivot deps.Dep) bool {
	return syncNear(prog, pivot.S) || syncNear(prog, pivot.L)
}

func syncNear(prog *program.Program, pc uint64) bool {
	t := isa.ThreadOf(pc)
	if t < 0 || t >= len(prog.Threads) {
		return false
	}
	code := prog.Threads[t]
	idx := isa.IndexOf(pc)
	lo, hi := idx-lockRadius, idx+lockRadius
	if lo < 0 {
		lo = 0
	}
	if hi >= len(code) {
		hi = len(code) - 1
	}
	for i := lo; i <= hi; i++ {
		if code[i].Op.IsSync() {
			return true
		}
	}
	return false
}

// evWindow copies a sequence into its JSON-friendly evidence form,
// dropping the front padding.
func evWindow(seq deps.Sequence) []EvDep {
	out := make([]EvDep, 0, len(seq))
	for _, d := range seq {
		if d.S == 0 && d.L == 0 && len(out) == 0 {
			continue
		}
		out = append(out, EvDep{S: d.S, L: d.L, Inter: d.Inter})
	}
	return out
}

// prunedNeighbors counts Debug Buffer entries from the same processor
// logged within neighborWindow dependences of the candidate that did
// not survive into the ranked report: near-misses the Correct Set
// eliminated around the survivor.
func prunedNeighbors(rep *ranking.Report, e core.DebugEntry, debug []core.DebugEntry) int {
	if len(debug) == 0 {
		return 0
	}
	n := 0
	for _, d := range debug {
		if d.Proc != e.Proc || d.At == e.At {
			continue
		}
		delta := int64(d.At) - int64(e.At)
		if delta < -neighborWindow || delta > neighborWindow {
			continue
		}
		if !survived(rep, d) {
			n++
		}
	}
	return n
}

// survived reports whether a debug entry made it into the ranked set.
func survived(rep *ranking.Report, d core.DebugEntry) bool {
	for _, c := range rep.Ranked {
		if c.Entry.Proc == d.Proc && c.Entry.At == d.At && slices.Equal(c.Entry.Seq, d.Seq) {
			return true
		}
	}
	return false
}
