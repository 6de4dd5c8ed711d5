package deps_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"act/internal/deps"
	"act/internal/trace"
	"act/internal/workloads"
)

// refSet is the reference Correct Set: string maps of Key for every
// member and for every proper prefix of every member, queried by
// encoding each candidate on its own.
type refSet struct {
	full, pre map[string]struct{}
}

func newRefSet() *refSet {
	return &refSet{full: map[string]struct{}{}, pre: map[string]struct{}{}}
}

func (r *refSet) add(s deps.Sequence) {
	r.full[s.Key()] = struct{}{}
	for i := 1; i < len(s); i++ {
		r.pre[s[:i].Key()] = struct{}{}
	}
}

func (r *refSet) contains(s deps.Sequence) bool {
	_, ok := r.full[s.Key()]
	return ok
}

func (r *refSet) matchCount(s deps.Sequence) int {
	if r.contains(s) {
		return len(s)
	}
	for i := len(s) - 1; i >= 1; i-- {
		if _, ok := r.pre[s[:i].Key()]; ok {
			return i
		}
		if _, ok := r.full[s[:i].Key()]; ok {
			return i
		}
	}
	return 0
}

// randSeq draws a sequence over a tiny alphabet, so duplicates and
// shared prefixes are common.
func randSeq(rng *rand.Rand, n, alphabet int) deps.Sequence {
	s := make(deps.Sequence, n)
	for i := range s {
		s[i] = deps.Dep{S: uint64(rng.Intn(alphabet)), L: 0x100 + uint64(rng.Intn(alphabet)), Inter: rng.Intn(2) == 1}
	}
	return s
}

// TestSeqSetMatchesReference checks Len, Contains and MatchCount against
// the reference on members, on every prefix of a member, and on
// non-members, with mixed lengths around N (N = 9 exceeds the
// allocation-free lookup length).
func TestSeqSetMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 9} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			ss, ref := deps.NewSeqSet(n), newRefSet()
			var members []deps.Sequence
			for i := 0; i < 400; i++ {
				s := randSeq(rng, max(1, n-1+rng.Intn(3)), 3)
				ss.Add(s)
				ref.add(s)
				members = append(members, s)
				if ss.Len() != len(ref.full) {
					t.Fatalf("after %d adds: Len %d, reference %d", i+1, ss.Len(), len(ref.full))
				}
			}
			var probes []deps.Sequence
			for _, s := range members {
				for i := 0; i <= len(s); i++ {
					probes = append(probes, s[:i])
				}
				alt := s.Clone()
				alt[len(alt)-1].Inter = !alt[len(alt)-1].Inter
				probes = append(probes, alt)
			}
			for i := 0; i < 2000; i++ {
				probes = append(probes, randSeq(rng, 1+rng.Intn(n+1), 4))
			}
			for _, p := range probes {
				if got, want := ss.Contains(p), ref.contains(p); got != want {
					t.Fatalf("Contains(%v) = %v, reference %v", p, got, want)
				}
				if got, want := ss.MatchCount(p), ref.matchCount(p); got != want {
					t.Fatalf("MatchCount(%v) = %d, reference %d", p, got, want)
				}
			}
		})
	}
}

// checkedInTraces collects a few executions of every kernel and every
// real and injected bug.
func checkedInTraces(t *testing.T) map[string][]*trace.Trace {
	t.Helper()
	out := map[string][]*trace.Trace{}
	for _, w := range workloads.Kernels() {
		for seed := int64(0); seed < 2; seed++ {
			tr, _ := trace.Collect(w.Build(seed), w.Sched(seed))
			out[w.Name] = append(out[w.Name], tr)
		}
	}
	bugs := workloads.RealBugs()
	for _, ib := range workloads.InjectedBugs() {
		bugs = append(bugs, ib.Bug)
	}
	for _, b := range bugs {
		for seed := int64(0); seed < 3; seed++ {
			p, sched := b.Gen(seed)
			tr, _ := trace.Collect(p, sched)
			out[b.Name] = append(out[b.Name], tr)
		}
	}
	return out
}

// TestCollectSequencesMatchesOnSequence checks that CollectSequences
// builds the same set as a fresh Extractor per trace whose OnSequence
// feeds Add, and as the reference fed the same sequences.
func TestCollectSequencesMatchesOnSequence(t *testing.T) {
	cfgs := []deps.ExtractorConfig{{N: 1}, {N: 2}, {N: 3, Granularity: 64}, {N: 5, FilterStack: true}}
	for name, traces := range checkedInTraces(t) {
		for _, cfg := range cfgs {
			viaAdd, ref := deps.NewSeqSet(cfg.N), newRefSet()
			var seqs []deps.Sequence
			for _, tr := range traces {
				e := deps.NewExtractor(cfg)
				e.OnSequence = func(_ uint16, s deps.Sequence) {
					viaAdd.Add(s)
					ref.add(s)
					seqs = append(seqs, s)
				}
				for _, r := range tr.Records {
					if r.Store {
						e.Store(r.Tid, r.PC, r.Addr, r.Stack)
					} else {
						e.Load(r.Tid, r.PC, r.Addr, r.Stack)
					}
				}
			}
			got := deps.CollectSequences(traces, cfg)
			if got.Len() != viaAdd.Len() || got.Len() != len(ref.full) {
				t.Fatalf("%s %+v: Len %d, via OnSequence %d, reference %d", name, cfg, got.Len(), viaAdd.Len(), len(ref.full))
			}
			for _, s := range seqs {
				if !got.Contains(s) {
					t.Fatalf("%s %+v: sequence %v missing", name, cfg, s)
				}
				// A truncated sequence probes the prefix maps.
				p := s[:len(s)-1]
				if got.MatchCount(p) != ref.matchCount(p) {
					t.Fatalf("%s %+v: MatchCount(%v) = %d, reference %d", name, cfg, p, got.MatchCount(p), ref.matchCount(p))
				}
			}
		}
	}
}

// TestSeqSetAllocations pins the allocation-free paths: re-adding a
// member, and lookups of sequences up to 8 dependences.
func TestSeqSetAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ss := deps.NewSeqSet(8)
	member := randSeq(rng, 8, 3)
	ss.Add(member)
	for i := 0; i < 50; i++ {
		ss.Add(randSeq(rng, 8, 3))
	}
	alien := randSeq(rng, 8, 3)
	alien[7].S = 0xdead
	if a := testing.AllocsPerRun(100, func() { ss.Add(member) }); a != 0 {
		t.Errorf("Add of a member: %v allocs, want 0", a)
	}
	for _, p := range []deps.Sequence{member, member[:3], alien} {
		if a := testing.AllocsPerRun(100, func() { ss.Contains(p) }); a != 0 {
			t.Errorf("Contains(len %d): %v allocs, want 0", len(p), a)
		}
		if a := testing.AllocsPerRun(100, func() { ss.MatchCount(p) }); a != 0 {
			t.Errorf("MatchCount(len %d): %v allocs, want 0", len(p), a)
		}
	}
}

// TestSeqSetConcurrentReaders: Contains and MatchCount write no shared
// scratch, so goroutines may query one set at once (run under -race).
func TestSeqSetConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ss, ref := deps.NewSeqSet(4), newRefSet()
	var probes []deps.Sequence
	for i := 0; i < 200; i++ {
		s := randSeq(rng, 4, 3)
		if i%2 == 0 {
			ss.Add(s)
			ref.add(s)
		}
		probes = append(probes, s, s[:2])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, p := range probes {
				if ss.Contains(p) != ref.contains(p) || ss.MatchCount(p) != ref.matchCount(p) {
					t.Errorf("concurrent lookup of %v disagrees with the reference", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCollectSequencesAllocationsPerTrace: collecting over eight copies
// of a trace allocates no more than over one copy plus a small constant,
// so nothing is allocated per dependence or per record.
func TestCollectSequencesAllocationsPerTrace(t *testing.T) {
	b, err := workloads.BugByName("apache")
	if err != nil {
		t.Fatal(err)
	}
	p, sched := b.Gen(1)
	tr, _ := trace.Collect(p, sched)
	cfg := deps.ExtractorConfig{N: 3}
	var deps1 int
	e := deps.NewExtractor(cfg)
	e.OnDep = func(uint16, deps.Dep) { deps1++ }
	for _, r := range tr.Records {
		if r.Store {
			e.Store(r.Tid, r.PC, r.Addr, r.Stack)
		} else {
			e.Load(r.Tid, r.PC, r.Addr, r.Stack)
		}
	}
	eight := []*trace.Trace{tr, tr, tr, tr, tr, tr, tr, tr}
	a1 := testing.AllocsPerRun(20, func() { deps.CollectSequences(eight[:1], cfg) })
	a8 := testing.AllocsPerRun(20, func() { deps.CollectSequences(eight, cfg) })
	if a8 > a1+2 {
		t.Errorf("8 copies: %v allocs, 1 copy: %v (%d deps per copy)", a8, a1, deps1)
	}
}
