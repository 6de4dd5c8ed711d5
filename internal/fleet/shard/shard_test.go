package shard

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/fleet"
	"act/internal/loader"
	"act/internal/ranking"
	"act/internal/wire"
)

// --- fixtures ---------------------------------------------------------

type stubSource struct {
	mu      sync.Mutex
	pending []core.DebugEntry
	stats   core.Stats
}

func (s *stubSource) push(es ...core.DebugEntry) {
	s.mu.Lock()
	s.pending = append(s.pending, es...)
	s.stats.PredictedInvalid += uint64(len(es))
	s.mu.Unlock()
}

func (s *stubSource) Drain() ([]core.DebugEntry, core.Stats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.pending
	s.pending = nil
	return out, s.stats
}

func seqOf(ids ...uint64) deps.Sequence {
	s := make(deps.Sequence, len(ids))
	for i, id := range ids {
		s[i] = deps.Dep{S: id << 4, L: id<<4 + 1, Inter: true}
	}
	return s
}

func entryOf(seq deps.Sequence, output float64) core.DebugEntry {
	return core.DebugEntry{Seq: seq, Output: output, Mode: core.Testing}
}

// The cross-shard scenario: a bug sequence in every failing run, noise
// in failing and correct runs, one unique sequence per failing run —
// enough distinct sequences that a ring over 3 shards splits them.
var (
	bugSeq   = seqOf(1, 2, 3)
	noiseA   = seqOf(4, 5, 6)
	noiseB   = seqOf(7, 8, 9)
	uniqSeqs = []deps.Sequence{seqOf(10, 11, 12), seqOf(13, 14, 15), seqOf(16, 17, 18)}
)

func failingEntries(i int) []core.DebugEntry {
	return []core.DebugEntry{
		entryOf(bugSeq, -1.5),
		entryOf(noiseA, -0.5),
		entryOf(noiseB, -0.4),
		entryOf(uniqSeqs[i], -2.0),
	}
}

func correctEntries() []core.DebugEntry {
	return []core.DebugEntry{entryOf(noiseA, -0.5), entryOf(noiseB, -0.4)}
}

func quickRetry(attempts int) loader.RetryConfig {
	return loader.RetryConfig{Attempts: attempts, Sleep: func(time.Duration) {}}
}

// fastBreaker trips after one failure and re-probes almost immediately,
// with deterministic jitter.
func fastBreaker() BreakerConfig {
	return BreakerConfig{
		Threshold: 1,
		BaseDelay: time.Microsecond,
		MaxDelay:  time.Millisecond,
		Rand:      func() float64 { return 0.5 },
	}
}

// shardFleet is three live shard collectors on loopback listeners.
type shardFleet struct {
	names      []string
	addrs      map[string]string
	collectors map[string]*fleet.Collector
	listeners  map[string]net.Listener
}

func startShards(t *testing.T, n int) *shardFleet {
	t.Helper()
	sf := &shardFleet{
		addrs:      make(map[string]string),
		collectors: make(map[string]*fleet.Collector),
		listeners:  make(map[string]net.Listener),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard%d", i)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := fleet.NewCollector(fleet.CollectorConfig{})
		go c.Serve(ln)
		t.Cleanup(c.Shutdown)
		sf.names = append(sf.names, name)
		sf.addrs[name] = ln.Addr().String()
		sf.collectors[name] = c
		sf.listeners[name] = ln
	}
	return sf
}

// kill closes a shard's listener and stops its accept loop — the
// crashed-process model (established connections die with it in real
// life; tests kill before the router connects). The listener is closed
// directly rather than via Shutdown, which races the Serve goroutine
// registering it.
func (sf *shardFleet) kill(name string) {
	sf.listeners[name].Close()
	sf.collectors[name].Shutdown()
}

// shipSharded runs the scenario through routers over the given shards
// and returns how many batches the routers shipped: one per shard each
// router's entries touch, so it is the count to wait for, not the
// number of routers.
func shipSharded(t *testing.T, sf *shardFleet, spoolDir string) uint64 {
	t.Helper()
	var shipped uint64
	ship := func(name string, run uint64, o wire.Outcome, entries []core.DebugEntry) {
		src := &stubSource{}
		src.push(entries...)
		rt, err := NewRouter(src, RouterConfig{
			Shards:   sf.addrs,
			Name:     name,
			Run:      run,
			Retry:    quickRetry(4),
			Breaker:  fastBreaker(),
			SpoolDir: spoolDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		rt.SetOutcome(o)
		if err := rt.Flush(); err != nil {
			t.Fatalf("router %s flush: %v", name, err)
		}
		if err := rt.Close(); err != nil {
			t.Fatalf("router %s close: %v", name, err)
		}
		shipped += rt.Stats().Shipped
	}
	for i := 0; i < 3; i++ {
		ship([]string{"f0", "f1", "f2"}[i], uint64(101+i), wire.OutcomeFailing, failingEntries(i))
	}
	ship("c0", 201, wire.OutcomeCorrect, correctEntries())
	ship("c1", 202, wire.OutcomeCorrect, correctEntries())
	return shipped
}

// singleCollectorBaseline runs the identical scenario through one
// in-process collector — the never-failed reference the sharded tier
// must reproduce byte-for-byte.
func singleCollectorBaseline() *fleet.Collector {
	c := fleet.NewCollector(fleet.CollectorConfig{})
	ingest := func(name string, run uint64, o wire.Outcome, entries []core.DebugEntry) {
		c.Ingest(&wire.Batch{Agent: name, Run: run, Seq: 0, Outcome: o, Entries: entries})
	}
	for i := 0; i < 3; i++ {
		ingest([]string{"f0", "f1", "f2"}[i], uint64(101+i), wire.OutcomeFailing, failingEntries(i))
	}
	ingest("c0", 201, wire.OutcomeCorrect, correctEntries())
	ingest("c1", 202, wire.OutcomeCorrect, correctEntries())
	return c
}

func reportBytes(t *testing.T, rep *ranking.Report) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitIngested blocks until the fleet's shards have drained their
// connections: total batches stop growing and match at least min.
func (sf *shardFleet) waitIngested(t *testing.T, min uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var total uint64
		for _, c := range sf.collectors {
			total += c.Stats().Batches
		}
		if total >= min {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d batches across shards", min)
}

// rollupOf merges every live shard's exported state.
func rollupOf(sf *shardFleet) *Rollup {
	ru := NewRollup(RollupConfig{Expected: sf.names})
	for _, name := range sf.names {
		ru.AddState(name, sf.collectors[name].ExportState())
	}
	return ru
}

// --- ring -------------------------------------------------------------

func TestRingRoutesEveryKeyAndBalances(t *testing.T) {
	r := NewRing([]string{"c", "a", "b", "a"}, 0)
	if got := r.Shards(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("shards not deduplicated and sorted: %v", got)
	}
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, r.Len())
	for i := 0; i < 10000; i++ {
		h := rng.Uint64()
		s := r.Route(h)
		if s < 0 || s >= r.Len() {
			t.Fatalf("key %x routed out of range: %d", h, s)
		}
		if again := r.Route(h); again != s {
			t.Fatalf("routing not deterministic for %x", h)
		}
		counts[s]++
	}
	for i, n := range counts {
		if n < 1000 {
			t.Fatalf("shard %d badly underloaded: %d of 10000 (counts %v)", i, n, counts)
		}
	}
}

func TestRingStabilityUnderShardLoss(t *testing.T) {
	full := NewRing([]string{"a", "b", "c", "d"}, 0)
	reduced := NewRing([]string{"a", "b", "d"}, 0)
	rng := rand.New(rand.NewSource(2))
	moved := 0
	const n = 10000
	for i := 0; i < n; i++ {
		h := rng.Uint64()
		before := full.Shards()[full.Route(h)]
		after := reduced.Shards()[reduced.Route(h)]
		if before != "c" && before != after {
			moved++
		}
	}
	// Consistent hashing: keys not owned by the removed shard stay put.
	if moved != 0 {
		t.Fatalf("%d of %d keys moved between surviving shards", moved, n)
	}
	if full.Successor(3) != 0 || full.Successor(1) != 2 {
		t.Fatalf("successor chain broken: %d %d", full.Successor(3), full.Successor(1))
	}
}

// --- breaker ----------------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{
		Threshold: 2,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  time.Second,
		Jitter:    0, // deterministic schedule
		Now:       func() time.Time { return now },
	})
	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("fresh breaker should be closed and allowing")
	}
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("one failure under threshold=2 must not open")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold failures must open")
	}
	if b.Allow() {
		t.Fatal("open breaker before backoff must refuse")
	}
	now = now.Add(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("elapsed backoff must admit the half-open probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe admission = %v", b.State())
	}
	if b.Allow() {
		t.Fatal("second caller during the probe must be refused")
	}
	b.Failure() // probe failed: reopen with doubled backoff
	if b.State() != BreakerOpen {
		t.Fatal("failed probe must reopen")
	}
	now = now.Add(100 * time.Millisecond)
	if b.Allow() {
		t.Fatal("reopened breaker must wait the doubled interval")
	}
	now = now.Add(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("doubled interval elapsed; probe must be admitted")
	}
	b.Success()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("successful probe must close and reset")
	}
}

func TestBreakerBackoffCapAndJitter(t *testing.T) {
	now := time.Unix(0, 0)
	var rolls int
	b := NewBreaker(BreakerConfig{
		Threshold: 1,
		BaseDelay: 10 * time.Millisecond,
		MaxDelay:  40 * time.Millisecond,
		Jitter:    0.5,
		Now:       func() time.Time { return now },
		Rand:      func() float64 { rolls++; return 1.0 },
	})
	for i := 0; i < 6; i++ { // push past the cap
		b.Failure()
		now = now.Add(time.Minute)
		if !b.Allow() {
			t.Fatalf("probe %d refused after a minute", i)
		}
	}
	// Final interval: capped 40ms * (1 + 0.5*1.0) = 60ms.
	b.Failure()
	if rolls == 0 {
		t.Fatal("jitter source never consulted")
	}
	now = now.Add(59 * time.Millisecond)
	if b.Allow() {
		t.Fatal("probe admitted before the jittered capped interval")
	}
	now = now.Add(2 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused after the jittered capped interval")
	}
}

// --- router + rollup --------------------------------------------------

// TestShardedMatchesSingleCollector: the scenario shipped through 3
// shards and merged by the rollup yields a report byte-identical to the
// single-collector baseline.
func TestShardedMatchesSingleCollector(t *testing.T) {
	sf := startShards(t, 3)
	sf.waitIngested(t, shipSharded(t, sf, t.TempDir()))

	// Evidence must actually be sharded, not funneled to one collector.
	spread := 0
	for _, c := range sf.collectors {
		if c.Sequences() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("sequences landed on %d shard(s); ring not partitioning", spread)
	}

	ru := rollupOf(sf)
	rr := ru.Report()
	if rr.Completeness != 1 {
		t.Fatalf("all shards merged but completeness = %v", rr.Completeness)
	}
	want := reportBytes(t, singleCollectorBaseline().Report())
	if got := reportBytes(t, rr.Report); !bytes.Equal(got, want) {
		t.Fatalf("sharded report differs from single-collector baseline:\ngot  %x\nwant %x", got, want)
	}

	// The rollup's top-K fast path agrees with the full report head.
	top := ru.TopK(2)
	full := rr.Report.Ranked
	if len(top) != 2 || top[0].Entry.Seq.Hash() != full[0].Entry.Seq.Hash() {
		t.Fatalf("TopK head disagrees with report: %+v vs %+v", top, full[:2])
	}
	if top[0].Entry.Seq.Key() != bugSeq.Key() {
		t.Fatalf("bug sequence not at rank 1: %s", top[0].Entry.Seq.Key())
	}
}

// TestFailoverReroutesToSuccessor: with one shard dead before any
// traffic, its lane's batches fail over to the ring successor and the
// merged report over the survivors is byte-identical to the baseline.
func TestFailoverReroutesToSuccessor(t *testing.T) {
	sf := startShards(t, 3)
	victim := sf.names[1]
	sf.kill(victim)

	src := &stubSource{}
	for i := 0; i < 3; i++ {
		src.push(failingEntries(i)...)
	}
	rt, err := NewRouter(src, RouterConfig{
		Shards:  sf.addrs,
		Name:    "f-all",
		Run:     999,
		Retry:   quickRetry(2),
		Breaker: fastBreaker(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetOutcome(wire.OutcomeFailing)
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush with one dead shard should fail over, got %v", err)
	}
	st := rt.Stats()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Reroutes == 0 {
		t.Fatalf("dead shard but no reroutes: %+v", st)
	}
	if st.DialFailures == 0 {
		t.Fatalf("dead shard's failures not classified as dial: %+v", st)
	}
	states := rt.BreakerStates()
	if states[victim] == BreakerClosed {
		t.Fatalf("victim's breaker still closed: %v", states)
	}
	sf.waitIngested(t, st.Shipped)

	// All evidence reached the survivors.
	ru := NewRollup(RollupConfig{Expected: sf.names})
	for _, name := range sf.names {
		if name == victim {
			ru.MarkUnreachable(name, "killed by test")
			continue
		}
		ru.AddState(name, sf.collectors[name].ExportState())
	}
	rr := ru.Report()
	if want := 2.0 / 3.0; rr.Completeness != want {
		t.Fatalf("completeness = %v, want %v", rr.Completeness, want)
	}
	base := fleet.NewCollector(fleet.CollectorConfig{})
	var entries []core.DebugEntry
	for i := 0; i < 3; i++ {
		entries = append(entries, failingEntries(i)...)
	}
	base.Ingest(&wire.Batch{Agent: "f-all", Run: 999, Outcome: wire.OutcomeFailing, Entries: entries})
	if got, want := reportBytes(t, rr.Report), reportBytes(t, base.Report()); !bytes.Equal(got, want) {
		t.Fatalf("failover lost or duplicated evidence")
	}
}

// TestAllShardsDownSpoolsThenReplays: with every shard dead the router
// spools per lane; once shards return, the spools replay — twice, to
// prove the dedup key makes replay idempotent — and the report matches
// the baseline exactly.
func TestAllShardsDownSpoolsThenReplays(t *testing.T) {
	spoolDir := t.TempDir()
	sf := startShards(t, 3)
	for _, name := range sf.names {
		sf.kill(name)
	}

	src := &stubSource{}
	src.push(failingEntries(0)...)
	rt, err := NewRouter(src, RouterConfig{
		Shards:   sf.addrs,
		Name:     "f0",
		Run:      101,
		Retry:    quickRetry(2),
		Breaker:  fastBreaker(),
		SpoolDir: spoolDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetOutcome(wire.OutcomeFailing)
	if err := rt.Flush(); err == nil {
		t.Fatal("flush with every shard dead must report an error")
	}
	st := rt.Stats()
	if st.Spooled == 0 || st.Unrouted == 0 {
		t.Fatalf("nothing spooled while all shards down: %+v", st)
	}
	if rt.SpoolBytes() == 0 {
		t.Fatal("spool files empty after total outage")
	}

	// Shards come back (fresh collectors on the same addresses).
	for _, name := range sf.names {
		ln, err := net.Listen("tcp", sf.addrs[name])
		if err != nil {
			t.Fatal(err)
		}
		c := fleet.NewCollector(fleet.CollectorConfig{})
		go c.Serve(ln)
		t.Cleanup(c.Shutdown)
		sf.collectors[name] = c
	}
	if err := rt.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := rt.Flush(); err != nil { // idempotence probe: nothing left, nothing breaks
		t.Fatalf("second flush after recovery: %v", err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	st = rt.Stats()
	if st.Replayed == 0 {
		t.Fatalf("spool not replayed after recovery: %+v", st)
	}
	if rt.SpoolBytes() != 0 {
		t.Fatal("spool files survive successful replay")
	}
	sf.waitIngested(t, st.Replayed+st.Shipped)

	ru := rollupOf(sf)
	base := fleet.NewCollector(fleet.CollectorConfig{})
	base.Ingest(&wire.Batch{Agent: "f0", Run: 101, Outcome: wire.OutcomeFailing, Entries: failingEntries(0)})
	if got, want := reportBytes(t, ru.Report().Report), reportBytes(t, base.Report()); !bytes.Equal(got, want) {
		t.Fatal("replayed evidence differs from baseline")
	}
}

// TestMergeStateOrderAndDuplicationInvariance: merging shard states in
// any order, or twice over, exports identical collector state.
func TestMergeStateOrderAndDuplicationInvariance(t *testing.T) {
	sf := startShards(t, 3)
	sf.waitIngested(t, shipSharded(t, sf, t.TempDir()))

	var states [][]byte
	for _, name := range sf.names {
		states = append(states, sf.collectors[name].ExportState())
	}
	merge := func(order []int, repeat bool) []byte {
		ru := NewRollup(RollupConfig{})
		for _, i := range order {
			if err := ru.AddState(fmt.Sprintf("s%d", i), states[i]); err != nil {
				t.Fatal(err)
			}
			if repeat {
				ru.AddState(fmt.Sprintf("s%d", i), states[i])
			}
		}
		return ru.Collector().ExportState()
	}
	want := merge([]int{0, 1, 2}, false)
	if got := merge([]int{2, 0, 1}, false); !bytes.Equal(got, want) {
		t.Fatal("merge is order-dependent")
	}
	if got := merge([]int{1, 2, 0}, true); !bytes.Equal(got, want) {
		t.Fatal("duplicate merges inflate state")
	}
	if err := NewRollup(RollupConfig{}).AddState("bad", []byte("ACTSgarbage")); err == nil {
		t.Fatal("damaged state blob merged without error")
	}
}

// TestRollupServeIngestsPushedState: a shard pushing MsgState over TCP
// lands in the rollup's merged view; batches pushed directly ingest
// too.
func TestRollupServeIngestsPushedState(t *testing.T) {
	sf := startShards(t, 2)
	sf.waitIngested(t, shipSharded(t, sf, t.TempDir()))

	ru := NewRollup(RollupConfig{Expected: sf.names})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ru.Serve(ln)
	defer ru.Shutdown()

	for _, name := range sf.names {
		if err := PushState(ln.Addr().String(), name, sf.collectors[name].ExportState(), time.Second); err != nil {
			t.Fatalf("push %s: %v", name, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ru.MergedShards() < len(sf.names) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if ru.MergedShards() != len(sf.names) {
		t.Fatalf("pushed states merged = %d, want %d", ru.MergedShards(), len(sf.names))
	}
	want := reportBytes(t, singleCollectorBaseline().Report())
	if got := reportBytes(t, ru.Report().Report); !bytes.Equal(got, want) {
		t.Fatal("pushed-state rollup differs from baseline")
	}
}
