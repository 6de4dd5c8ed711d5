package deps

import (
	"math/rand"
	"sort"

	"act/internal/trace"
)

// Example is one labelled training/testing input for the neural network.
type Example struct {
	X     []float64 // encoded features
	Valid bool      // true for observed sequences, false for synthesized
	Seq   Sequence  // the underlying dependence sequence
	Tid   uint16    // processor the sequence belongs to
	Count int       // dynamic occurrences folded into this example
}

// Dataset is a deduplicated set of examples produced by the input
// generator, ready for neural-network training. Prior holds the
// default-invalid prior points (feature vectors with no underlying
// dependence sequence).
type Dataset struct {
	N        int
	Examples []Example
	Prior    [][]float64
}

// Positives returns the number of valid examples.
func (d *Dataset) Positives() int {
	n := 0
	for _, e := range d.Examples {
		if e.Valid {
			n++
		}
	}
	return n
}

// Negatives returns the number of invalid examples.
func (d *Dataset) Negatives() int { return len(d.Examples) - d.Positives() }

// DynamicCount returns the total dynamic sequence occurrences folded
// into the dataset (the sum of example counts).
func (d *Dataset) DynamicCount() int {
	n := 0
	for _, e := range d.Examples {
		n += e.Count
	}
	return n
}

// Generator is the paper's Input Generator: it replays execution traces
// through an Extractor, groups dependences into sequences, synthesizes
// negative examples from before-last writers, and accumulates a
// deduplicated Dataset. A sequence observed as valid anywhere is never
// also emitted as a negative (conflicts resolve in favour of valid).
//
// Beyond the paper's before-last-store negatives, the Generator can
// sample additional wrong-writer negatives: for each observed sequence,
// variants whose final dependence is rewired to another store
// instruction observed in the traces. This teaches the network the
// PSet-style boundary — for a given load, only its observed writers are
// valid — which is what lets online testing condemn a buggy dependence
// whose wrong writer never produced a before-last negative.
type Generator struct {
	cfg      ExtractorConfig
	enc      Encoder
	randNeg  int
	priorNeg int
	seed     int64
	exclude  func(Dep) bool
	pos      map[string]*Example
	neg      map[string]*Example
	deps     map[Dep]int // unique dynamic dependences with counts
	stores   map[uint64]uint16
	order    []string // positive keys in first-seen order (determinism)
}

// GeneratorConfig extends the extractor configuration with negative-
// sampling controls.
type GeneratorConfig struct {
	Extractor ExtractorConfig
	// RandomNegatives is the number of wrong-writer negatives sampled
	// per observed sequence (0 disables sampling).
	RandomNegatives int
	// Seed drives the deterministic sampling.
	Seed int64
	// Exclude withholds matching dependences entirely: sequences
	// containing one are not emitted, and the dependence's endpoints do
	// not enter the negative-sampling pools. This is the paper's
	// "remove all dependences from a chosen function" — the training
	// must not know the function's instructions exist at all.
	Exclude func(Dep) bool
	// PriorNegatives adds this many uniform-random feature points
	// labeled invalid, a default-invalid prior: communication the
	// training never observed starts out suspect, and online learning
	// in the field whitelists the legitimate new patterns. Zero picks a
	// default proportional to the positives; negative disables.
	PriorNegatives int
}

// NewGenerator returns a Generator with before-last-store negatives
// only. TrackPrev is forced on.
func NewGenerator(cfg ExtractorConfig, enc Encoder) *Generator {
	return NewGeneratorFull(GeneratorConfig{Extractor: cfg}, enc)
}

// NewGeneratorFull returns a Generator with full configuration.
func NewGeneratorFull(cfg GeneratorConfig, enc Encoder) *Generator {
	cfg.Extractor.TrackPrev = true
	if enc == nil {
		enc = EncodeDefault
	}
	return &Generator{
		cfg:      cfg.Extractor,
		enc:      enc,
		randNeg:  cfg.RandomNegatives,
		priorNeg: cfg.PriorNegatives,
		seed:     cfg.Seed,
		exclude:  cfg.Exclude,
		pos:      make(map[string]*Example),
		neg:      make(map[string]*Example),
		deps:     make(map[Dep]int),
		stores:   make(map[uint64]uint16),
	}
}

// excluded reports whether any dependence of the sequence is withheld.
func (g *Generator) excluded(s Sequence) bool {
	if g.exclude == nil {
		return false
	}
	for _, d := range s {
		if d != (Dep{}) && g.exclude(d) {
			return true
		}
	}
	return false
}

// Add replays one trace through the generator. Last-writer state resets
// per trace (each trace is an independent execution).
func (g *Generator) Add(t *trace.Trace) {
	e := NewExtractor(g.cfg)
	e.OnDep = func(tid uint16, d Dep) {
		if g.exclude != nil && g.exclude(d) {
			return
		}
		g.deps[d]++
	}
	e.OnSequence = func(tid uint16, s Sequence) {
		if g.excluded(s) {
			return
		}
		k := s.Key()
		if ex, ok := g.pos[k]; ok {
			ex.Count++
			return
		}
		g.pos[k] = &Example{X: g.enc(s, nil), Valid: true, Seq: s, Tid: tid, Count: 1}
		g.order = append(g.order, k)
	}
	e.OnNegative = func(tid uint16, s Sequence) {
		if g.excluded(s) {
			return
		}
		k := s.Key()
		if ex, ok := g.neg[k]; ok {
			ex.Count++
			return
		}
		g.neg[k] = &Example{X: g.enc(s, nil), Valid: false, Seq: s, Tid: tid, Count: 1}
	}
	for _, r := range t.Records {
		if r.Store {
			g.stores[r.PC] = r.Tid
			e.Store(r.Tid, r.PC, r.Addr, r.Stack)
		} else {
			e.Load(r.Tid, r.PC, r.Addr, r.Stack)
		}
	}
}

// UniqueDeps returns the number of unique dynamic RAW dependences seen.
func (g *Generator) UniqueDeps() int { return len(g.deps) }

// TotalDeps returns the total dynamic RAW dependences seen.
func (g *Generator) TotalDeps() int {
	n := 0
	for _, c := range g.deps {
		n += c
	}
	return n
}

// Dataset finalizes and returns the deduplicated dataset in a
// deterministic order (positives first-seen, then negatives by key).
// Negatives that collide with an observed valid sequence are dropped.
func (g *Generator) Dataset() *Dataset {
	g.sampleNegatives()
	d := &Dataset{N: g.cfg.N}
	d.Prior = g.priorExamples()
	for _, k := range g.order {
		d.Examples = append(d.Examples, *g.pos[k])
	}
	negKeys := make([]string, 0, len(g.neg))
	for k := range g.neg {
		if _, ok := g.pos[k]; ok {
			continue
		}
		negKeys = append(negKeys, k)
	}
	sort.Strings(negKeys)
	for _, k := range negKeys {
		d.Examples = append(d.Examples, *g.neg[k])
	}
	return d
}

// sampleNegatives synthesizes wrong-writer negatives of two flavours,
// for each observed sequence:
//
//   - same-load: the final dependence's S is rewired to another store
//     observed in the traces (a load fed by the wrong writer);
//   - wrong-pair: the final dependence is replaced outright with an
//     unobserved (S, L) pairing of observed endpoints, teaching the
//     network that a never-seen communication pair is invalid in any
//     context.
//
// Candidates are enumerated in a per-sequence shuffled order so small
// programs get full coverage (coverage-first, not sampling with
// replacement).
func (g *Generator) sampleNegatives() {
	if g.randNeg <= 0 || len(g.stores) < 2 {
		return
	}
	pcs := make([]uint64, 0, len(g.stores))
	for pc := range g.stores {
		// Excluded (new-code) instructions must not enter the sampling
		// pool either.
		if g.exclude != nil && g.exclude(Dep{S: pc, L: pc}) {
			continue
		}
		pcs = append(pcs, pc)
	}
	if len(pcs) < 2 {
		return
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	loadSet := make(map[uint64]struct{})
	validPair := make(map[[2]uint64]struct{}, len(g.deps))
	for d := range g.deps {
		loadSet[d.L] = struct{}{}
		validPair[[2]uint64{d.S, d.L}] = struct{}{}
	}
	loads := make([]uint64, 0, len(loadSet))
	for l := range loadSet {
		loads = append(loads, l)
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i] < loads[j] })

	rng := rand.New(rand.NewSource(g.seed + 0x5eed))
	emit := func(ex *Example, d Dep) bool {
		neg := ex.Seq.Clone()
		neg[len(neg)-1] = d
		k := neg.Key()
		if _, ok := g.pos[k]; ok {
			return false
		}
		if _, ok := g.neg[k]; ok {
			return false
		}
		g.neg[k] = &Example{X: g.enc(neg, nil), Valid: false, Seq: neg, Tid: ex.Tid, Count: 1}
		return true
	}
	for _, key := range g.order {
		ex := g.pos[key]
		last := ex.Seq[len(ex.Seq)-1]
		// Flavour 1: same load, wrong writer. A writer observed feeding
		// this load elsewhere is not wrong — multi-writer loads (e.g. a
		// shared histogram updated by several threads) must not have
		// their other legitimate writers poisoned into negatives.
		made := 0
		for _, pi := range rng.Perm(len(pcs)) {
			if made >= g.randNeg {
				break
			}
			spc := pcs[pi]
			if spc == last.S {
				continue
			}
			if _, ok := validPair[[2]uint64{spc, last.L}]; ok {
				continue
			}
			if emit(ex, Dep{S: spc, L: last.L, Inter: g.stores[spc] != ex.Tid}) {
				made++
			}
		}
		// Flavour 2: an unobserved pairing of observed endpoints.
		made = 0
		for tries := 0; made < g.randNeg && tries < 6*g.randNeg; tries++ {
			spc := pcs[rng.Intn(len(pcs))]
			lpc := loads[rng.Intn(len(loads))]
			if _, ok := validPair[[2]uint64{spc, lpc}]; ok {
				continue
			}
			if emit(ex, Dep{S: spc, L: lpc, Inter: g.stores[spc] != ex.Tid}) {
				made++
			}
		}
	}
}

// priorExamples synthesizes the default-invalid prior points: uniform
// random feature vectors far (in feature space) from every positive, so
// the prior does not contradict observed-valid behaviour.
func (g *Generator) priorExamples() [][]float64 {
	n := g.priorNeg
	if n < 0 {
		return nil
	}
	if n == 0 {
		n = min(64, max(8, len(g.pos)))
	}
	width := InputLen(g.enc, g.cfg.N)
	rng := rand.New(rand.NewSource(g.seed + 0x9101))
	out := make([][]float64, 0, n)
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		x := make([]float64, width)
		for i := range x {
			x[i] = 0.05 + 0.9*rng.Float64()
		}
		// Reject points too close to a positive: the prior must default
		// the empty space to invalid without fighting the data.
		tooClose := false
		for _, k := range g.order {
			if l1Close(x, g.pos[k].X, 0.08) {
				tooClose = true
				break
			}
		}
		if !tooClose {
			out = append(out, x)
		}
	}
	return out
}

// l1Close reports whether two points are within eps in every coordinate.
func l1Close(a, b []float64, eps float64) bool {
	for i := range a {
		d := a[i] - b[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// SeqSet is a set of dependence sequences with prefix-match queries: the
// Correct Set of the paper's offline postprocessing. Members and their
// prefixes are keyed by their exact Key bytes, never by a digest.
type SeqSet struct {
	n    int
	full map[string]struct{}
	pre  map[string]struct{} // every proper prefix of every member
	buf  []byte              // Add's encoding scratch
}

// lookupDeps is the sequence length up to which Contains and MatchCount
// encode their lookup key on the stack and so never allocate.
const lookupDeps = 8

// NewSeqSet returns an empty set for sequences of length n.
func NewSeqSet(n int) *SeqSet {
	return &SeqSet{n: n, full: make(map[string]struct{}), pre: make(map[string]struct{})}
}

// Add inserts a sequence and all its prefixes. Adding a member again
// costs one lookup and no allocation: its prefixes went in with it.
func (ss *SeqSet) Add(s Sequence) {
	ss.buf = s.AppendKey(ss.buf[:0])
	if _, ok := ss.full[string(ss.buf)]; ok {
		return
	}
	k := string(ss.buf)
	ss.full[k] = struct{}{}
	for i := 1; i < len(s); i++ {
		ss.pre[k[:DepSize*i]] = struct{}{}
	}
}

// Len returns the number of distinct full sequences.
func (ss *SeqSet) Len() int { return len(ss.full) }

// Contains reports whether the exact sequence is in the set.
func (ss *SeqSet) Contains(s Sequence) bool {
	var stack [lookupDeps * DepSize]byte
	k := s.AppendKey(stack[:0])
	_, ok := ss.full[string(k)]
	return ok
}

// MatchCount returns the length of the longest prefix of s that matches
// a prefix of some member sequence — the paper's "number of matched RAW
// dependences" used for ranking.
func (ss *SeqSet) MatchCount(s Sequence) int {
	var stack [lookupDeps * DepSize]byte
	k := s.AppendKey(stack[:0])
	if _, ok := ss.full[string(k)]; ok {
		return len(s)
	}
	for i := len(s) - 1; i >= 1; i-- {
		p := k[:DepSize*i]
		if _, ok := ss.pre[string(p)]; ok {
			return i
		}
		if _, ok := ss.full[string(p)]; ok {
			return i
		}
	}
	return 0
}

// CollectSequences builds a SeqSet of every sequence occurring in the
// given traces — the Correct Set when the traces come from correct runs.
// Each trace is an independent execution, so the extractor is reset
// between traces; it and the sequence buffer are reused across them.
func CollectSequences(traces []*trace.Trace, cfg ExtractorConfig) *SeqSet {
	ss := NewSeqSet(cfg.N)
	e := NewExtractor(cfg)
	seq := make(Sequence, e.n)
	for _, t := range traces {
		e.Reset()
		for _, r := range t.Records {
			if r.Store {
				e.Store(r.Tid, r.PC, r.Addr, r.Stack)
			} else if _, ok := e.Load(r.Tid, r.PC, r.Addr, r.Stack); ok {
				e.wins[r.Tid].fill(seq)
				ss.Add(seq)
			}
		}
	}
	return ss
}
