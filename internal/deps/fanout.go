package deps

import "sync"

// Fanout is the hand-off between the two stages of parallel replay.
//
// Last-writer resolution must observe the memory trace in its single
// global (coherence) order — a store by one thread changes which writer
// every later load sees, on any thread. Classification, by contrast, is
// per-processor state only: a module's verdict depends exclusively on
// the order of its own thread's dependences. Fanout exploits exactly
// that split: the sequential stage pushes each formed dependence into
// its thread's stream, and one worker per thread drains the stream
// concurrently. Per-thread order is preserved, so the parallel replay
// is bit-identical to the sequential one.
//
// Dependences travel in batches over bounded channels: batching
// amortizes the channel synchronization to a few operations per
// hundreds of dependences, and the bound provides backpressure — a slow
// worker stalls the producer instead of growing an unbounded queue.
// Batch buffers are recycled through a per-stream free list, so the
// steady state allocates nothing; a BatchPool carries them from one
// fan-out to the next, so a caller replaying trace after trace does not
// allocate a fresh set per call.
//
// Push and Close must be called from a single goroutine (the sequential
// stage); each FanStream must be consumed by a single goroutine.
//
// Flush and Barrier extend the protocol for checkpointing: Flush pushes
// every partial batch out, Barrier injects a token per stream that each
// consumer acknowledges only after draining everything delivered before
// it. Flush + Barrier + WaitGroup.Wait therefore quiesces the whole
// fan-out — every formed dependence classified, every worker parked —
// without tearing the streams down, which is exactly the stable point a
// mid-trace checkpoint snapshots.

// FanoutConfig tunes the hand-off.
type FanoutConfig struct {
	Batch int // dependences per batch; 0 means 512
	Depth int // batches buffered per thread; 0 means 4
	// Pool supplies the batch buffers and takes them back at Recycle.
	// Required; a zero BatchPool starts empty.
	Pool *BatchPool
}

// BatchPool keeps batch buffers between fan-outs. It belongs to one
// producer: a fan-out takes buffers from it as streams open, on the
// producer goroutine, and Recycle returns them once every consumer is
// done.
type BatchPool struct {
	free [][]Dep
}

// get returns an empty buffer of capacity at least n, pooled when one
// is large enough.
func (p *BatchPool) get(n int) []Dep {
	for len(p.free) > 0 {
		b := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		if cap(b) >= n {
			return b[:0]
		}
	}
	return make([]Dep, 0, n)
}

func (c FanoutConfig) withDefaults() FanoutConfig {
	if c.Batch <= 0 {
		c.Batch = 512
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	return c
}

// fanItem is one channel delivery: either a dependence batch or a
// barrier token. A barrier carries the producer's WaitGroup; the
// consumer acknowledges it only after every earlier batch on the stream
// has been fully processed, which is what makes Barrier a quiescence
// point (see Fanout.Barrier).
type fanItem struct {
	buf []Dep
	bar *sync.WaitGroup
}

// FanStream is one thread's batch stream, consumed by its worker.
type FanStream struct {
	ch   chan fanItem
	free chan []Dep
	last []Dep
}

// Next returns the next batch, blocking until the producer delivers one;
// ok is false once the stream is closed and drained. The returned slice
// is valid only until the following Next call — its backing array is
// recycled to the producer. Barrier tokens are handled transparently:
// Next acknowledges them and keeps waiting for the next real batch, so
// worker loops never see them.
func (s *FanStream) Next() (batch []Dep, ok bool) {
	for {
		if s.last != nil {
			s.free <- s.last[:0]
			s.last = nil
		}
		it, ok := <-s.ch
		if !ok {
			return nil, false
		}
		if it.bar != nil {
			// The channel is FIFO and the previous batch was completed
			// before this Next call, so acknowledging here orders the
			// barrier after every batch delivered before it.
			it.bar.Done()
			continue
		}
		s.last = it.buf
		statFanoutInflight.Dec()
		return it.buf, true
	}
}

// fanShard is the producer side of one thread's stream.
type fanShard struct {
	stream *FanStream
	cur    []Dep
}

// Fanout splits a globally ordered dependence stream into per-thread
// bounded batch streams.
type Fanout struct {
	cfg    FanoutConfig
	shards []*fanShard // indexed by tid
	onNew  func(tid uint16, s *FanStream)
}

// NewFanout creates a fan-out. onNew fires in the producer goroutine the
// first time a thread produces a dependence, before that dependence is
// delivered — the caller starts the thread's worker there.
func NewFanout(cfg FanoutConfig, onNew func(tid uint16, s *FanStream)) *Fanout {
	return &Fanout{cfg: cfg.withDefaults(), onNew: onNew}
}

// Push appends one dependence to tid's stream, delivering a batch (and
// blocking on backpressure) whenever one fills.
func (f *Fanout) Push(tid uint16, d Dep) {
	i := int(tid)
	if i >= len(f.shards) {
		grown := make([]*fanShard, i+1)
		copy(grown, f.shards)
		f.shards = grown
	}
	sh := f.shards[i]
	if sh == nil {
		st := &FanStream{
			// ch is sized Depth+1 so Barrier's token never blocks behind a
			// full data queue held by a worker that is itself blocked — the
			// extra slot is reserved for control traffic.
			ch:   make(chan fanItem, f.cfg.Depth+1),
			free: make(chan []Dep, f.cfg.Depth+2),
		}
		// Buffer census: one being filled (cur), up to Depth in flight in
		// ch, one held by the consumer until its next Next call, and the
		// rest parked in free — Depth+2 in total. free is sized to hold
		// all of them: once the stream is closed and drained, the consumer
		// hands every buffer back, so a smaller capacity would block the
		// final free-list send in Next forever.
		for b := 0; b < f.cfg.Depth+1; b++ {
			st.free <- f.cfg.Pool.get(f.cfg.Batch)
		}
		sh = &fanShard{stream: st, cur: f.cfg.Pool.get(f.cfg.Batch)}
		f.shards[i] = sh
		if f.onNew != nil {
			f.onNew(tid, st)
		}
	}
	sh.cur = append(sh.cur, d)
	if len(sh.cur) == f.cfg.Batch {
		statFanoutInflight.Inc()
		statFanoutBatches.Inc()
		sh.stream.ch <- fanItem{buf: sh.cur}
		sh.cur = <-sh.stream.free
		statFanoutRecycled.Inc()
	}
}

// Flush delivers every thread's partial batch without closing the
// streams, so a checkpoint sees all dependences formed so far. Like
// Push, producer-goroutine only.
func (f *Fanout) Flush() {
	for _, sh := range f.shards {
		if sh == nil || len(sh.cur) == 0 {
			continue
		}
		statFanoutInflight.Inc()
		statFanoutBatches.Inc()
		sh.stream.ch <- fanItem{buf: sh.cur}
		sh.cur = <-sh.stream.free
		statFanoutRecycled.Inc()
	}
}

// Barrier enqueues a barrier token on every active stream and returns
// the number of tokens sent, each accounted in wg before its send. A
// consumer acknowledges its token only after processing every batch
// delivered before it, so once wg.Wait returns, every dependence pushed
// before the Barrier call has been fully classified and the workers are
// parked in channel receives — the producer may safely read module
// state (the WaitGroup's Done/Wait pair publishes it). Call Flush first
// or partial batches will quiesce unclassified in the producer.
func (f *Fanout) Barrier(wg *sync.WaitGroup) int {
	n := 0
	for _, sh := range f.shards {
		if sh == nil {
			continue
		}
		wg.Add(1)
		sh.stream.ch <- fanItem{bar: wg}
		n++
	}
	return n
}

// Close flushes every thread's partial batch and closes the streams;
// workers observe ok == false from Next once drained.
func (f *Fanout) Close() {
	for _, sh := range f.shards {
		if sh == nil {
			continue
		}
		if len(sh.cur) > 0 {
			statFanoutInflight.Inc()
			statFanoutBatches.Inc()
			sh.stream.ch <- fanItem{buf: sh.cur}
			sh.cur = nil
		}
		close(sh.stream.ch)
	}
}

// Recycle hands every stream's batch buffers back to the configured
// pool. Call it after Close, once every consumer has seen the end of its
// stream: its buffers are then all parked in the stream's free list.
func (f *Fanout) Recycle() {
	p := f.cfg.Pool
	for _, sh := range f.shards {
		if sh == nil {
			continue
		}
		if sh.cur != nil { // Close found it empty and kept it
			p.free = append(p.free, sh.cur)
			sh.cur = nil
		}
		for len(sh.stream.free) > 0 {
			p.free = append(p.free, <-sh.stream.free)
		}
	}
}
