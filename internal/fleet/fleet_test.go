package fleet

import (
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/loader"
	"act/internal/ranking"
	"act/internal/wire"
)

// --- fixtures ---------------------------------------------------------

// stubSource is a Source fed by tests.
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

// seqOf builds a distinct sequence from small ids.
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

// The fleet scenario: a bug sequence logged by every failing run, two
// noise sequences logged by failing AND correct runs (so cross-run
// pruning removes them), and one unique sequence per failing run. The
// bug's output is deliberately *less* negative than the uniques', so
// only the cross-run weighting — three failing runs versus one — puts
// it at rank 1.
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

func rankedKeys(rep *ranking.Report) []string {
	out := make([]string, len(rep.Ranked))
	for i, c := range rep.Ranked {
		out[i] = c.Entry.Seq.Key()
	}
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startCollector serves a collector on a loopback listener.
func startCollector(t *testing.T, cfg CollectorConfig) (*Collector, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(cfg)
	go c.Serve(ln)
	t.Cleanup(c.Shutdown)
	return c, ln.Addr().String()
}

// quickRetry keeps tests fast: no real sleeping between attempts.
func quickRetry(attempts int) loader.RetryConfig {
	return loader.RetryConfig{Attempts: attempts, Sleep: func(time.Duration) {}}
}

// runFleet ships the scenario through a loopback collector, wrapping
// each agent's dialer with mkDial (nil = stock TCP), and returns the
// collector once all five runs have been ingested.
func runFleet(t *testing.T, mkDial func(agent string) func(string) (net.Conn, error)) *Collector {
	t.Helper()
	c, addr := startCollector(t, CollectorConfig{})
	ship := func(name string, run uint64, o wire.Outcome, entries []core.DebugEntry) {
		src := &stubSource{}
		src.push(entries...)
		cfg := AgentConfig{Addr: addr, Name: name, Run: run, Retry: quickRetry(8)}
		if mkDial != nil {
			cfg.Dial = mkDial(name)
		}
		ag, err := NewAgent(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ag.SetOutcome(o)
		if err := ag.Flush(); err != nil {
			t.Fatalf("agent %s flush: %v", name, err)
		}
		if err := ag.Close(); err != nil {
			t.Fatalf("agent %s close: %v", name, err)
		}
	}
	for i := 0; i < 3; i++ {
		ship([]string{"f0", "f1", "f2"}[i], uint64(101+i), wire.OutcomeFailing, failingEntries(i))
	}
	ship("c0", 201, wire.OutcomeCorrect, correctEntries())
	ship("c1", 202, wire.OutcomeCorrect, correctEntries())
	waitFor(t, "5 batches ingested", func() bool { return c.Stats().Batches == 5 })
	return c
}

// --- the acceptance-criterion tests -----------------------------------

// TestFleetLoopbackCrossRunRank1: three agents replaying failing runs
// and two replaying correct runs ship to one in-process collector over
// real TCP; the cross-run ranked report places the bug sequence at
// rank 1 even though a single-run ranking would not.
func TestFleetLoopbackCrossRunRank1(t *testing.T) {
	c := runFleet(t, nil)
	rep := c.Report()

	if got := rankedKeys(rep); len(got) == 0 || got[0] != bugSeq.Key() {
		t.Fatalf("bug sequence not at rank 1: %v", got)
	}
	if rep.Ranked[0].Runs != 3 {
		t.Fatalf("bug sequence runs = %d, want 3", rep.Ranked[0].Runs)
	}
	if rep.Pruned < 2 {
		t.Fatalf("noise sequences not pruned by cross-run Correct Set: pruned=%d", rep.Pruned)
	}
	for _, k := range rankedKeys(rep) {
		if k == noiseA.Key() || k == noiseB.Key() {
			t.Fatalf("noise sequence survived pruning")
		}
	}
	// Without the cross-run weighting the uniques (output -2.0) would
	// outrank the bug (-1.5) — make sure the test means something.
	single := *rep
	single.Ranked = append([]ranking.Candidate(nil), rep.Ranked...)
	single.Resort(ranking.MostMatched)
	if single.Ranked[0].Entry.Seq.Key() == bugSeq.Key() {
		t.Fatalf("scenario too easy: bug ranks first even without run weighting")
	}
}

// faultConn injects one fault per connection, scripted by dial order:
// connection 0 delivers a corrupted frame then reports a write error;
// connection 1 disconnects mid-batch; connection 2 delivers cleanly but
// claims failure (so the agent redelivers a duplicate); later
// connections behave.
type faultConn struct {
	net.Conn
	mode int
}

func (f *faultConn) Write(p []byte) (int, error) {
	switch f.mode {
	case 0:
		q := append([]byte(nil), p...)
		q[3*len(q)/4] ^= 0x5A // flip a bit inside the frame body
		f.Conn.Write(q)
		return 0, errors.New("injected: error after corrupt delivery")
	case 1:
		f.Conn.Write(p[:len(p)/2])
		f.Conn.Close()
		return len(p) / 2, errors.New("injected: disconnect mid-batch")
	case 2:
		f.Conn.Write(p)
		return 0, errors.New("injected: ack lost")
	default:
		return f.Conn.Write(p)
	}
}

// TestFleetSurvivesFaultsRankingUnchanged: the fleet pipeline absorbs a
// corrupted frame, a mid-batch disconnect, and a duplicate delivery,
// and the ranked report comes out identical to the fault-free run.
func TestFleetSurvivesFaultsRankingUnchanged(t *testing.T) {
	baseline := rankedKeys(runFleet(t, nil).Report())

	var dials int32
	mkDial := func(agent string) func(string) (net.Conn, error) {
		if agent != "f0" {
			return nil // stock dialer for the other agents
		}
		return func(addr string) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			mode := int(atomic.AddInt32(&dials, 1)) - 1
			return &faultConn{Conn: conn, mode: mode}, nil
		}
	}
	c := runFleet(t, mkDial)
	waitFor(t, "duplicate observed", func() bool { return c.Stats().DupBatches >= 1 })

	st := c.Stats()
	if st.BadSpans == 0 {
		t.Fatalf("corrupted frame not observed: %+v", st)
	}
	if got := rankedKeys(c.Report()); !sameKeys(got, baseline) {
		t.Fatalf("faults changed the ranking:\nbaseline %v\nfaulty   %v", baseline, got)
	}
}

// --- agent behaviour ---------------------------------------------------

func TestFleetSpoolAndReplay(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool.actw")
	var up atomic.Bool
	var realAddr atomic.Value // string, set once the collector exists

	src := &stubSource{}
	ag, err := NewAgent(src, AgentConfig{
		Addr:      "collector:0", // resolved through the test dialer
		Name:      "spooler",
		Run:       7,
		SpoolPath: spool,
		Retry:     quickRetry(2),
		Dial: func(string) (net.Conn, error) {
			if !up.Load() {
				return nil, errors.New("injected: collector down")
			}
			return net.DialTimeout("tcp", realAddr.Load().(string), 5*time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ag.SetOutcome(wire.OutcomeFailing)

	src.push(failingEntries(0)...)
	if err := ag.Flush(); err == nil {
		t.Fatal("flush succeeded with collector down")
	}
	src.push(entryOf(seqOf(20, 21, 22), -0.9))
	if err := ag.Flush(); err == nil {
		t.Fatal("second flush succeeded with collector down")
	}
	if st := ag.Stats(); st.Spooled != 2 || st.Shipped != 0 {
		t.Fatalf("stats after outage: %+v", st)
	}
	if fi, err := os.Stat(spool); err != nil || fi.Size() == 0 {
		t.Fatalf("spool file missing or empty: %v", err)
	}

	c, addr := startCollector(t, CollectorConfig{})
	realAddr.Store(addr)
	up.Store(true)
	if err := ag.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ag.Stats(); st.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2: %+v", st.Replayed, st)
	}
	if _, err := os.Stat(spool); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spool not removed after replay: %v", err)
	}
	waitFor(t, "spooled batches ingested", func() bool { return c.Stats().Batches == 2 })
	rep := c.Report()
	if rep.RankOf(func(s deps.Sequence) bool { return s.Key() == bugSeq.Key() }) == 0 {
		t.Fatal("replayed evidence missing from report")
	}
}

// ackLostConn forwards every write and then reports failure, so the
// agent believes nothing was delivered and replays the whole spool on
// the next connection.
type ackLostConn struct{ net.Conn }

func (c *ackLostConn) Write(p []byte) (int, error) {
	c.Conn.Write(p)
	return 0, errors.New("injected: ack lost mid-replay")
}

// TestFleetSpoolTailCorruptionMidReplay: two batches land in the spool
// during an outage and the file's tail frame is damaged on disk. The
// first replay connection delivers the surviving batch but dies before
// acknowledging, forcing a second replay of the same spool. The
// collector must end up with exactly one copy of the surviving batch
// (no double-counted sequences), and the loss of the tail batch must
// surface through the corruption counters rather than vanish silently.
func TestFleetSpoolTailCorruptionMidReplay(t *testing.T) {
	spool := filepath.Join(t.TempDir(), "spool.actw")
	var up atomic.Bool
	var realAddr atomic.Value // string
	var replayConns int32

	src := &stubSource{}
	ag, err := NewAgent(src, AgentConfig{
		Addr:      "collector:0",
		Name:      "tail",
		Run:       7,
		SpoolPath: spool,
		Retry:     quickRetry(3),
		Dial: func(string) (net.Conn, error) {
			if !up.Load() {
				return nil, errors.New("injected: collector down")
			}
			conn, err := net.DialTimeout("tcp", realAddr.Load().(string), 5*time.Second)
			if err != nil {
				return nil, err
			}
			if atomic.AddInt32(&replayConns, 1) == 1 {
				return &ackLostConn{Conn: conn}, nil
			}
			return conn, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ag.SetOutcome(wire.OutcomeFailing)

	// Outage: batch A (the scenario entries) and batch B (one extra
	// sequence) both land in the spool, B last.
	src.push(failingEntries(0)...)
	if err := ag.Flush(); err == nil {
		t.Fatal("flush succeeded with collector down")
	}
	src.push(entryOf(seqOf(20, 21, 22), -0.9))
	if err := ag.Flush(); err == nil {
		t.Fatal("second flush succeeded with collector down")
	}
	if st := ag.Stats(); st.Spooled != 2 {
		t.Fatalf("spooled = %d, want 2", st.Spooled)
	}

	// Damage the spool's tail frame — B's bytes — as a crash mid-append
	// or a bad sector would.
	data, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(spool, data, 0o644); err != nil {
		t.Fatal(err)
	}

	c, addr := startCollector(t, CollectorConfig{})
	realAddr.Store(addr)
	up.Store(true)
	if err := ag.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}

	st := ag.Stats()
	if st.SpoolBadSpans == 0 || st.SpoolSkippedBytes == 0 {
		t.Fatalf("tail corruption not surfaced: %+v", st)
	}
	if _, err := os.Stat(spool); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spool not removed after replay: %v", err)
	}
	if atomic.LoadInt32(&replayConns) < 2 {
		t.Fatalf("replay was not interrupted: %d connection(s)", replayConns)
	}

	// The surviving batch was delivered on both replay attempts; dedup
	// must keep exactly one copy.
	waitFor(t, "redelivery observed", func() bool { return c.Stats().DupBatches >= 1 })
	cst := c.Stats()
	if cst.Batches != 1 {
		t.Fatalf("collector batches = %d, want 1 (dups %d)", cst.Batches, cst.DupBatches)
	}
	rep := c.Report()
	if rep.RankOf(func(s deps.Sequence) bool { return s.Key() == bugSeq.Key() }) == 0 {
		t.Fatal("surviving batch missing from report")
	}
	for _, cand := range rep.Ranked {
		if cand.Runs != 1 {
			t.Fatalf("double-counted sequence %s: runs = %d", cand.Entry.Seq.Key(), cand.Runs)
		}
		if cand.Entry.Seq.Key() == seqOf(20, 21, 22).Key() {
			t.Fatal("corrupt tail batch reached the collector")
		}
	}
}

func TestFleetAgentBackpressure(t *testing.T) {
	src := &stubSource{}
	ag, err := NewAgent(src, AgentConfig{
		Addr:            "collector:0",
		MaxQueue:        4,
		MaxBatchEntries: 2,
		Retry:           quickRetry(1),
		Dial:            func(string) (net.Conn, error) { return nil, errors.New("injected: down") },
	})
	if err != nil {
		t.Fatal(err)
	}
	// One tick, five entries, cap two per batch: three batches formed.
	src.push(failingEntries(0)...)
	src.push(entryOf(seqOf(30, 31, 32), -0.1))
	ag.Tick()
	if st := ag.Stats(); st.Batches != 3 {
		t.Fatalf("batches = %d, want 3", st.Batches)
	}
	// Keep draining with the collector down: the queue stays at its
	// bound and the oldest batches are the ones sacrificed.
	for i := 0; i < 8; i++ {
		src.push(entryOf(seqOf(40+uint64(i), 41, 42), -0.2))
		if err := ag.Flush(); err == nil {
			t.Fatal("flush succeeded with collector down and no spool")
		}
	}
	st := ag.Stats()
	if st.Batches != 11 {
		t.Fatalf("batches = %d, want 11", st.Batches)
	}
	if want := st.Batches - 4; st.DroppedBatches != want {
		t.Fatalf("dropped = %d, want %d (queue bound 4)", st.DroppedBatches, want)
	}
	ag.mu.Lock()
	qlen := len(ag.queue)
	ag.mu.Unlock()
	if qlen != 4 {
		t.Fatalf("queue length = %d, want 4", qlen)
	}
}

func TestFleetAgentPeriodicLoop(t *testing.T) {
	c, addr := startCollector(t, CollectorConfig{})
	src := &stubSource{}
	ag, err := NewAgent(src, AgentConfig{Addr: addr, Interval: 5 * time.Millisecond, Run: 9})
	if err != nil {
		t.Fatal(err)
	}
	ag.SetOutcome(wire.OutcomeFailing)
	src.push(failingEntries(1)...)
	ag.Start()
	waitFor(t, "loop shipped a batch", func() bool { return c.Stats().Batches >= 1 })
	if err := ag.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ag.Stats(); st.Shipped == 0 {
		t.Fatalf("nothing shipped: %+v", st)
	}
}

// --- collector behaviour ----------------------------------------------

func mkBatch(agent string, run, seq uint64, o wire.Outcome, entries ...core.DebugEntry) *wire.Batch {
	return &wire.Batch{Agent: agent, Run: run, Seq: seq, Outcome: o, Entries: entries}
}

func TestFleetCollectorDedup(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	b := mkBatch("a", 1, 0, wire.OutcomeFailing, failingEntries(0)...)
	c.Ingest(b)
	c.Ingest(b)
	st := c.Stats()
	if st.Batches != 1 || st.DupBatches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	rep := c.Report()
	if len(rep.Ranked) == 0 || rep.Ranked[0].Runs != 1 {
		t.Fatalf("duplicate inflated run count: %+v", rep.Ranked)
	}
}

func TestFleetCollectorOutcomeFlip(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	c.Ingest(mkBatch("a", 1, 0, wire.OutcomeUnknown, failingEntries(0)...))
	if rep := c.Report(); len(rep.Ranked) != 0 {
		t.Fatalf("outcome-unknown evidence ranked prematurely: %+v", rep.Ranked)
	}
	// The monitored program then crashes: an empty batch flips the run
	// to failing and the pending evidence is re-filed retroactively.
	c.Ingest(mkBatch("a", 1, 1, wire.OutcomeFailing))
	rep := c.Report()
	if rep.RankOf(func(s deps.Sequence) bool { return s.Key() == bugSeq.Key() }) == 0 {
		t.Fatal("pending evidence not reclassified after outcome flip")
	}
	if rep.Ranked[0].Runs != 1 {
		t.Fatalf("runs = %d, want 1", rep.Ranked[0].Runs)
	}
}

func TestFleetCollectorSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "actd.snapshot")
	a := NewCollector(CollectorConfig{SnapshotPath: path})
	for i := 0; i < 3; i++ {
		a.Ingest(mkBatch("f", uint64(101+i), 0, wire.OutcomeFailing, failingEntries(i)...))
	}
	a.Ingest(mkBatch("c", 201, 0, wire.OutcomeCorrect, correctEntries()...))
	a.Ingest(mkBatch("c", 202, 0, wire.OutcomeCorrect, correctEntries()...))
	want := rankedKeys(a.Report())
	if err := a.Snapshot(""); err != nil {
		t.Fatal(err)
	}

	b := NewCollector(CollectorConfig{SnapshotPath: path})
	if got := rankedKeys(b.Report()); !sameKeys(got, want) {
		t.Fatalf("snapshot round trip changed ranking:\nwant %v\ngot  %v", want, got)
	}
	// Dedup state survives too: redelivery after a restart is dropped.
	b.Ingest(mkBatch("f", 101, 0, wire.OutcomeFailing, failingEntries(0)...))
	if st := b.Stats(); st.DupBatches != 1 {
		t.Fatalf("redelivery after restart not deduped: %+v", st)
	}

	// A damaged snapshot is ignored, not fatal.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	d := NewCollector(CollectorConfig{SnapshotPath: path})
	if rep := d.Report(); len(rep.Ranked) != 0 {
		t.Fatalf("damaged snapshot loaded: %+v", rep.Ranked)
	}
}

// TestFleetCollectorSnapshotConcurrent: actd's snapshot ticker and its
// shutdown hook can snapshot at the same time. Every call must succeed
// and the path must end up holding a whole, loadable state with no temp
// file left behind.
func TestFleetCollectorSnapshotConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.acts")
	c := NewCollector(CollectorConfig{SnapshotPath: path})
	c.Ingest(mkBatch("f", 101, 0, wire.OutcomeFailing, failingEntries(0)...))
	const rounds = 200
	errs := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := c.Snapshot(""); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	loaded := NewCollector(CollectorConfig{SnapshotPath: path})
	if got, want := loaded.ExportState(), c.ExportState(); !bytes.Equal(got, want) {
		t.Fatal("snapshot on disk differs from the collector's state")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after snapshots, want 1", len(entries))
	}
}
