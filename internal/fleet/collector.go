package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/frame"
	"act/internal/obs"
	"act/internal/ranking"
	"act/internal/wire"
)

// CollectorConfig parameterizes a Collector.
type CollectorConfig struct {
	// MaxPayload caps a frame's payload per connection; 0 means
	// wire.DefaultMaxPayload. It bounds per-connection memory.
	MaxPayload int
	// ReadTimeout is the per-read deadline on agent connections; an
	// agent silent for longer is disconnected (it will redial and the
	// dedup makes redelivery harmless); default 2 minutes.
	ReadTimeout time.Duration
	// MaxConns caps concurrent agent connections; excess connections
	// are accepted and immediately closed; default 256.
	MaxConns int

	// SeqLen is N for the Correct Set used in pruning and match
	// counting; default 3, or inferred from the first ingested entry
	// when that is longer.
	SeqLen int
	// CorrectPrune is the number of distinct correct runs that must
	// have logged a sequence before it is pruned as a known false
	// positive; default 1.
	CorrectPrune int
	// BaseCorrect seeds the Correct Set from trace-derived sequences
	// (the paper's offline postprocessing input), merged with what
	// correct-run agents report. Optional.
	BaseCorrect *deps.SeqSet

	// Strategy orders candidates within equal cross-run counts;
	// default MostMatched (the paper's choice).
	Strategy ranking.Strategy

	// SnapshotPath, when set, is where Snapshot persists the aggregate
	// state (atomically: synced temp file + rename) and where
	// NewCollector reloads it from.
	SnapshotPath string
}

func (c CollectorConfig) withDefaults() CollectorConfig {
	if c.MaxPayload <= 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.SeqLen <= 0 {
		c.SeqLen = 3
	}
	if c.CorrectPrune <= 0 {
		c.CorrectPrune = 1
	}
	return c
}

// CollectorStats counts a collector's activity.
type CollectorStats struct {
	Conns        uint64 // connections accepted
	Rejected     uint64 // connections refused at the MaxConns cap
	Batches      uint64 // batches ingested
	DupBatches   uint64 // redelivered batches dropped by dedup
	Entries      uint64 // entries ingested (before per-run dedup)
	BadSpans     uint64 // corrupt spans skipped across all connections
	SkippedBytes uint64 // bytes discarded across all connections
}

// seqAgg is the collector's per-sequence aggregate.
type seqAgg struct {
	entry       core.DebugEntry     // most negative output observed
	failRuns    map[uint64]struct{} // failing runs that logged it
	correctRuns map[uint64]struct{} // correct runs that logged it
}

// Collector aggregates batches from a fleet of agents. All exported
// methods are safe for concurrent use.
type Collector struct {
	cfg CollectorConfig

	mu       sync.Mutex
	seen     map[uint64]struct{}     // guarded by mu; ingested batch keys (dedup)
	agg      map[uint64]*seqAgg      // guarded by mu; by sequence hash (deps.Sequence.Hash)
	outcomes map[uint64]wire.Outcome // guarded by mu
	pending  map[uint64][]uint64     // guarded by mu; sequence hashes logged by still-unknown runs
	stats    CollectorStats          // guarded by mu
	conns    int                     // guarded by mu

	lnMu sync.Mutex
	ln   net.Listener // guarded by lnMu

	snapMu sync.Mutex // serializes Snapshot calls

	// ingestNS times batch merges (act_collector_ingest_ns). The
	// histogram is internally atomic, so it lives outside mu.
	ingestNS obs.Histogram
}

// NewCollector creates a collector, loading the snapshot at
// cfg.SnapshotPath when one exists. A damaged snapshot is ignored (the
// collector starts empty) rather than fatal: it is a cache of evidence
// the fleet keeps resupplying.
func NewCollector(cfg CollectorConfig) *Collector {
	c := &Collector{
		cfg:      cfg.withDefaults(),
		seen:     make(map[uint64]struct{}),
		agg:      make(map[uint64]*seqAgg),
		outcomes: make(map[uint64]wire.Outcome),
		pending:  make(map[uint64][]uint64),
	}
	if c.cfg.SnapshotPath != "" {
		c.loadSnapshot(c.cfg.SnapshotPath) // best effort
	}
	return c
}

// Stats returns a copy of the activity counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Sequences returns the number of distinct sequences aggregated
// (act_collector_sequences).
func (c *Collector) Sequences() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.agg)
}

// Runs returns the number of distinct runs seen, decided or not
// (act_collector_runs).
func (c *Collector) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.outcomes)
}

// Ingest merges one batch into the aggregate. Redelivered batches
// (same agent, run and sequence number) are dropped. Exported for
// in-process fleets and tests; the TCP path funnels here too.
func (c *Collector) Ingest(b *wire.Batch) {
	sp := obs.StartSpan(&c.ingestNS)
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	key := b.Key()
	if _, dup := c.seen[key]; dup {
		c.stats.DupBatches++
		return
	}
	c.seen[key] = struct{}{}
	c.stats.Batches++
	c.stats.Entries += uint64(len(b.Entries))

	run := b.RunKey()
	c.noteOutcomeLocked(run, b.Outcome)
	outcome := c.outcomes[run]
	for _, e := range b.Entries {
		c.noteEntryLocked(run, outcome, e)
	}
}

// noteOutcomeLocked records a run's outcome; a late flip from Unknown
// re-files the run's sequences under the decided side.
//
//act:locked mu
func (c *Collector) noteOutcomeLocked(run uint64, o wire.Outcome) {
	prev := c.outcomes[run]
	if o == wire.OutcomeUnknown || o == prev {
		return
	}
	c.outcomes[run] = o
	if prev == wire.OutcomeUnknown {
		for _, k := range c.pending[run] {
			if agg, ok := c.agg[k]; ok {
				c.fileRunLocked(agg, run, o)
			}
		}
		delete(c.pending, run)
	}
}

// noteEntryLocked merges one entry under the run's current outcome.
//
//act:locked mu
func (c *Collector) noteEntryLocked(run uint64, outcome wire.Outcome, e core.DebugEntry) {
	k := e.Seq.Hash()
	agg, ok := c.agg[k]
	if !ok {
		agg = &seqAgg{entry: e}
		c.agg[k] = agg
	} else if e.Output < agg.entry.Output {
		agg.entry = e
	}
	if outcome == wire.OutcomeUnknown {
		c.pending[run] = append(c.pending[run], k)
		return
	}
	c.fileRunLocked(agg, run, outcome)
}

// fileRunLocked adds run to the aggregate's failing or correct set.
//
//act:locked mu
func (c *Collector) fileRunLocked(agg *seqAgg, run uint64, o wire.Outcome) {
	switch o {
	case wire.OutcomeFailing:
		if agg.failRuns == nil {
			agg.failRuns = make(map[uint64]struct{})
		}
		agg.failRuns[run] = struct{}{}
	case wire.OutcomeCorrect:
		if agg.correctRuns == nil {
			agg.correctRuns = make(map[uint64]struct{})
		}
		agg.correctRuns[run] = struct{}{}
	case wire.OutcomeUnknown:
		// Callers file runs only after an outcome is decided
		// (undecided runs park in pending); an Unknown here is a
		// caller bug, but filing it on either side would corrupt the
		// failing/correct occurrence counts, so it is dropped.
	}
}

// Report builds the fleet-wide ranked report: sequences logged by
// enough correct runs join the Correct Set and prune their failing-run
// twins (plus any trace-derived BaseCorrect sequences); the survivors
// are ranked by ranking.RankWith under the configured strategy, then
// weighted so sequences seen in many distinct failing runs rank first.
func (c *Collector) Report() *ranking.Report {
	c.mu.Lock()
	defer c.mu.Unlock()

	keys := c.sortedAggKeysLocked()
	correct := c.correctSetLocked(keys)
	var debug []core.DebugEntry
	runsOf := make(map[uint64]int)
	for _, k := range keys {
		agg := c.agg[k]
		if len(agg.failRuns) > 0 {
			debug = append(debug, agg.entry)
			runsOf[k] = len(agg.failRuns)
		}
	}
	rep := ranking.RankWith(debug, correct, c.cfg.Strategy)
	for i := range rep.Ranked {
		rep.Ranked[i].Runs = runsOf[rep.Ranked[i].Entry.Seq.Hash()]
	}
	rep.WeightByRuns()
	return rep
}

// TopK returns the head of the ranking Report would produce — the same
// Correct-Set pruning, strategy order and cross-run weighting — without
// materializing and sorting the full candidate list: survivors stream
// through a ranking.TopK selector, O(n log k). This is the rollup's and
// the benchmark's fast path; Report remains the full-fidelity one.
func (c *Collector) TopK(k int) []ranking.Candidate {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := c.sortedAggKeysLocked()
	correct := c.correctSetLocked(keys)
	sel := ranking.NewTopK(k, c.cfg.Strategy)
	for _, key := range keys {
		agg := c.agg[key]
		if len(agg.failRuns) == 0 || correct.Contains(agg.entry.Seq) {
			continue
		}
		sel.Push(ranking.Candidate{
			Entry:   agg.entry,
			Matches: correct.MatchCount(agg.entry.Seq),
			Runs:    len(agg.failRuns),
		})
	}
	return sel.Candidates()
}

// sortedAggKeysLocked returns the aggregate's sequence hashes in
// ascending order — the deterministic iteration order every consumer
// of the aggregate uses.
//
//act:locked mu
func (c *Collector) sortedAggKeysLocked() []uint64 {
	keys := make([]uint64, 0, len(c.agg))
	for k := range c.agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// correctSetLocked builds the Correct Set over the aggregate: sequences
// logged by enough distinct correct runs, plus any trace-derived
// BaseCorrect sequences.
//
//act:locked mu
func (c *Collector) correctSetLocked(keys []uint64) *deps.SeqSet {
	n := c.cfg.SeqLen
	for _, k := range keys {
		if l := len(c.agg[k].entry.Seq); l > n {
			n = l
		}
	}
	correct := deps.NewSeqSet(n)
	for _, k := range keys {
		agg := c.agg[k]
		if len(agg.correctRuns) >= c.cfg.CorrectPrune {
			correct.Add(agg.entry.Seq)
		}
		if c.cfg.BaseCorrect != nil && c.cfg.BaseCorrect.Contains(agg.entry.Seq) {
			correct.Add(agg.entry.Seq)
		}
	}
	return correct
}

// ReadFrom ingests one connection's wire stream from r — the transport-
// independent half of serving, used directly by tests and fault
// campaigns. Corruption is skipped frame-wise and counted; the error
// reflects only protocol-level failures (wrong magic/version) or
// transport errors other than end-of-stream.
func (c *Collector) IngestStream(r io.Reader) (wire.StreamReport, error) {
	rd := wire.NewReader(r, c.cfg.MaxPayload)
	var err error
	for {
		var b *wire.Batch
		b, err = rd.Next()
		if err != nil {
			break
		}
		c.Ingest(b)
	}
	rep := rd.Report()
	c.mu.Lock()
	c.stats.BadSpans += uint64(rep.BadSpans)
	c.stats.SkippedBytes += uint64(rep.SkippedBytes)
	c.mu.Unlock()
	if err == io.EOF {
		err = nil
	}
	return rep, err
}

// Serve accepts agent connections on l until Shutdown (or a fatal
// accept error). Each connection is handled concurrently, bounded by
// MaxConns, with the configured read deadline.
func (c *Collector) Serve(l net.Listener) error {
	c.lnMu.Lock()
	c.ln = l
	c.lnMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			c.lnMu.Lock()
			closed := c.ln == nil
			c.lnMu.Unlock()
			if closed {
				return nil // Shutdown
			}
			return err
		}
		c.mu.Lock()
		if c.conns >= c.cfg.MaxConns {
			c.stats.Rejected++
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.conns++
		c.stats.Conns++
		c.mu.Unlock()
		go func() {
			defer func() {
				conn.Close()
				c.mu.Lock()
				c.conns--
				c.mu.Unlock()
			}()
			c.IngestStream(&deadlineReader{conn: conn, d: c.cfg.ReadTimeout})
		}()
	}
}

// Shutdown stops Serve. In-flight connections finish at their own pace
// (bounded by the read deadline).
func (c *Collector) Shutdown() {
	c.lnMu.Lock()
	ln := c.ln
	c.ln = nil
	c.lnMu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// deadlineReader arms a fresh read deadline before every read, so the
// per-connection bound is "silent for longer than d", not "connected
// for longer than d".
type deadlineReader struct {
	conn net.Conn
	d    time.Duration
}

func (r *deadlineReader) Read(p []byte) (int, error) {
	r.conn.SetReadDeadline(time.Now().Add(r.d))
	return r.conn.Read(p)
}

// Collector state persistence and merge:
//
//	magic "ACTS" | u16 version=2 | u16 reserved
//	u32 batch-key count | u64 keys
//	u32 run count | per run: u64 run key | u8 outcome
//	u32 aggregate count | per aggregate:
//	  wire entry | u32 failing-run count | u64 run keys |
//	  u32 correct-run count | u64 run keys
//	u32 pending-run count | per run:             (v2; absent in v1)
//	  u64 run key | u32 hash count | u64 sequence hashes
//	u32 crc32(everything after the prologue)
//
// The same bytes serve as the snapshot file and as the shard state a
// rollup node merges (wire MsgState). Version 2 persists the pending
// (outcome-unknown) attributions, so evidence from a run still
// undecided at snapshot time survives a restart and is re-filed when
// the outcome arrives; version 1 states load without a pending section.
//
// Everything in the encoding is sorted, so two collectors holding the
// same evidence export byte-identical state — and because the per-key
// merges below are associative, commutative and idempotent (set unions,
// min-output entry selection), merging shard states in any order, with
// any overlap from failover re-delivery, converges on the state a
// single never-failed collector would hold.

// The ACTS rules: versions 1 (no pending section) and 2 are read; any
// damage rejects the whole blob — a snapshot load is abandoned, a merge
// fails — and trailing bytes are damage.
var (
	errStateMagic   = errors.New("fleet: not a collector state")
	errStateVersion = errors.New("fleet: unsupported collector-state version")
	errStateCRC     = errors.New("fleet: collector state fails its checksum")

	stateFormat = frame.Sealed{
		Prologue: frame.Prologue{Magic: "ACTS", Version: 2, Oldest: 1,
			ErrMagic: errStateMagic, ErrVersion: errStateVersion},
		ErrCRC: errStateCRC,
	}
)

// Snapshot atomically and durably persists the aggregate state to path
// (or the configured SnapshotPath when path is empty). Concurrent calls
// are serialized, so the file always ends up holding the state of the
// call that returned last.
func (c *Collector) Snapshot(path string) error {
	if path == "" {
		path = c.cfg.SnapshotPath
	}
	if path == "" {
		return fmt.Errorf("fleet: no snapshot path configured")
	}
	c.snapMu.Lock()
	defer c.snapMu.Unlock()
	return frame.WriteFile(path, c.ExportState())
}

// ExportState serializes the collector's aggregate state — the
// checksummed bytes a snapshot file holds and a rollup node merges.
func (c *Collector) ExportState() []byte {
	c.mu.Lock()
	body := c.encodeStateLocked()
	c.mu.Unlock()
	return stateFormat.Seal(nil, body)
}

// encodeStateLocked serializes the aggregate for the snapshot file.
//
//act:locked mu
func (c *Collector) encodeStateLocked() []byte {
	var w frame.Encoder
	sorted := func(m map[uint64]struct{}) []uint64 {
		out := make([]uint64, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	u64s := func(vs []uint64) {
		w.U32(uint32(len(vs)))
		for _, v := range vs {
			w.U64(v)
		}
	}

	u64s(sorted(c.seen))

	runs := make([]uint64, 0, len(c.outcomes))
	for r := range c.outcomes {
		runs = append(runs, r)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	w.U32(uint32(len(runs)))
	for _, r := range runs {
		w.U64(r)
		w.U8(byte(c.outcomes[r]))
	}

	aggKeys := make([]uint64, 0, len(c.agg))
	for k := range c.agg {
		aggKeys = append(aggKeys, k)
	}
	sort.Slice(aggKeys, func(i, j int) bool { return aggKeys[i] < aggKeys[j] })
	w.U32(uint32(len(aggKeys)))
	for _, k := range aggKeys {
		agg := c.agg[k]
		w = wire.AppendEntry(w, agg.entry)
		u64s(sorted(agg.failRuns))
		u64s(sorted(agg.correctRuns))
	}

	pendRuns := make([]uint64, 0, len(c.pending))
	for r := range c.pending {
		pendRuns = append(pendRuns, r)
	}
	sort.Slice(pendRuns, func(i, j int) bool { return pendRuns[i] < pendRuns[j] })
	w.U32(uint32(len(pendRuns)))
	for _, r := range pendRuns {
		w.U64(r)
		// The in-memory pending list keeps one element per logged entry;
		// re-filing is a set insert, so duplicates collapse to a sorted
		// set here — deterministic bytes, same refile result.
		set := make(map[uint64]struct{}, len(c.pending[r]))
		for _, h := range c.pending[r] {
			set[h] = struct{}{}
		}
		u64s(sorted(set))
	}
	return w
}

// collectorState is a decoded state blob, detached from any Collector.
type collectorState struct {
	seen     map[uint64]struct{}
	outcomes map[uint64]wire.Outcome
	agg      map[uint64]*seqAgg
	pending  map[uint64][]uint64
}

// decodeState parses bytes produced by ExportState (either version).
// Any damage — short blob, bad magic, checksum mismatch, truncated or
// overlong body — is an error.
func decodeState(data []byte) (*collectorState, error) {
	body, version, err := stateFormat.Open(data)
	if err != nil {
		return nil, err
	}
	d := frame.NewDecoder(body)
	nSeen := d.Count(8)
	st := &collectorState{
		seen:     make(map[uint64]struct{}, nSeen),
		outcomes: make(map[uint64]wire.Outcome),
		agg:      make(map[uint64]*seqAgg),
		pending:  make(map[uint64][]uint64),
	}
	for i := 0; i < nSeen; i++ {
		st.seen[d.U64()] = struct{}{}
	}
	// runSet reads an aggregate's run set; an empty one stays nil, as
	// fileRunLocked expects.
	runSet := func() map[uint64]struct{} {
		n := d.Count(8)
		if n == 0 {
			return nil
		}
		m := make(map[uint64]struct{}, n)
		for i := 0; i < n; i++ {
			m[d.U64()] = struct{}{}
		}
		return m
	}
	for i, n := 0, d.Count(9); i < n; i++ {
		r := d.U64()
		st.outcomes[r] = wire.Outcome(d.U8())
	}
	for i, n := 0, d.Count(20+4+4); i < n && d.Err() == nil; i++ {
		a := &seqAgg{entry: wire.ReadEntry(&d)}
		a.failRuns = runSet()
		a.correctRuns = runSet()
		st.agg[a.entry.Seq.Hash()] = a
	}
	if version >= 2 {
		for i, n := 0, d.Count(8+4); i < n && d.Err() == nil; i++ {
			r := d.U64()
			hs := make([]uint64, d.Count(8))
			for j := range hs {
				hs[j] = d.U64()
			}
			st.pending[r] = hs
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("fleet: collector state: %w", err)
	}
	return st, nil
}

// loadSnapshot restores state saved by Snapshot. Any damage abandons
// the load and leaves the collector empty.
func (c *Collector) loadSnapshot(path string) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	st, err := decodeState(data)
	if err != nil {
		return false
	}
	c.mu.Lock()
	c.seen, c.outcomes, c.agg, c.pending = st.seen, st.outcomes, st.agg, st.pending
	c.stats.Batches = uint64(len(st.seen)) // dedup set = batches ever accepted
	c.mu.Unlock()
	return true
}

// MergeStats summarizes one merged state blob — the totals the blob
// itself reported, used for per-shard completeness annotations.
type MergeStats struct {
	Batches   int // distinct batch keys the shard had accepted
	Sequences int // distinct sequences it aggregated
	Runs      int // distinct runs it had seen
}

// MergeState unions a peer collector's exported state into this one —
// how a rollup node folds shard aggregates into the fleet-wide view.
// Every per-key operation is a set union or a min-output selection, so
// the merge is associative, commutative and idempotent: shard states
// may arrive in any order and overlap arbitrarily (failover re-routes
// the same batch to two shards) without inflating any count. Pending
// attributions from one shard are re-filed when another shard knew the
// run's outcome.
func (c *Collector) MergeState(data []byte) (MergeStats, error) {
	st, err := decodeState(data)
	if err != nil {
		return MergeStats{}, fmt.Errorf("fleet: merge state: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	for k := range st.seen {
		c.seen[k] = struct{}{}
	}
	for k, in := range st.agg {
		agg, ok := c.agg[k]
		if !ok {
			agg = &seqAgg{entry: in.entry}
			c.agg[k] = agg
		} else if in.entry.Output < agg.entry.Output {
			agg.entry = in.entry
		}
		for r := range in.failRuns {
			c.fileRunLocked(agg, r, wire.OutcomeFailing)
		}
		for r := range in.correctRuns {
			c.fileRunLocked(agg, r, wire.OutcomeCorrect)
		}
	}
	for r, hs := range st.pending {
		c.pending[r] = append(c.pending[r], hs...)
	}
	// Outcomes last: a decided outcome beats Unknown (noteOutcomeLocked
	// re-files the united pending lists); two conflicting decided
	// outcomes — impossible for a run that truly ran once — resolve to
	// Failing deterministically, never losing failure evidence.
	for r, o := range st.outcomes {
		prev, known := c.outcomes[r]
		switch {
		case !known:
			if o == wire.OutcomeUnknown {
				c.outcomes[r] = o // record the run; nothing to file yet
			} else {
				c.noteOutcomeLocked(r, o) // records and re-files pending
			}
		case o == wire.OutcomeUnknown || o == prev:
			// nothing new
		case prev == wire.OutcomeUnknown:
			c.noteOutcomeLocked(r, o)
		default:
			c.outcomes[r] = wire.OutcomeFailing
		}
	}
	// Re-file pending evidence for runs this collector had already
	// decided before the merge.
	for r, hs := range c.pending {
		o := c.outcomes[r]
		if o == wire.OutcomeUnknown {
			continue
		}
		for _, k := range hs {
			if agg, ok := c.agg[k]; ok {
				c.fileRunLocked(agg, r, o)
			}
		}
		delete(c.pending, r)
	}
	c.stats.Batches = uint64(len(c.seen))
	return MergeStats{Batches: len(st.seen), Sequences: len(st.agg), Runs: len(st.outcomes)}, nil
}
