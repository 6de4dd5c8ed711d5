// Package pipeline is the deterministic stage-graph engine the
// diagnosis flow executes on. Each stage of the paper's pipeline —
// trace decode, dependence extraction, per-module classification,
// pruning/ranking, RCA — is a named Node; data moves between nodes over
// bounded typed Edges; a Graph tracks the spawned workers, propagates
// the first error, and exposes per-node latency and queue-depth metrics
// (act_pipeline_*).
//
// The engine makes two deliberate departures from a conventional
// worker-pool scheduler:
//
//   - The driver node runs inline on the caller's goroutine (Graph.Run,
//     or Node.Run with no graph at all). Sequential replay is therefore
//     exactly the old loop — no goroutine hop, no channel per record,
//     no allocation per call — which is what keeps the batch path's
//     speedup from being diluted by per-call overhead on
//     microsecond-scale traces.
//   - Nodes may be spawned while the graph is running (Graph.Go): the
//     per-module classification nodes only exist once their thread
//     produces a dependence, mirroring the paper's one-AM-per-processor
//     deployment hook.
//
// The checkpoint layer (checkpoint.go) gives graph executions a
// CRC-framed on-disk representation of stage-boundary state, so a
// killed run resumes mid-trace; the core and stages packages define
// what goes in the sections.
//
//act:goleak
package pipeline

import (
	"fmt"
	"sync"

	"act/internal/obs"
)

// Graph is one execution of the stage graph. It is cheap to construct;
// a fresh Graph per run keeps error state unshared.
type Graph struct {
	name string

	wg sync.WaitGroup

	mu   sync.Mutex
	err  error         // first failure, guarded by mu
	done chan struct{} // closed on first failure, signals senders to stop
}

// New creates an empty graph. name prefixes error messages
// ("replay/classify: ...").
func New(name string) *Graph {
	return &Graph{name: name, done: make(chan struct{})}
}

// Node is one named stage, obtained from Stage. A Node starts nothing —
// the caller either runs work through it inline (Graph.Run, Node.Run)
// or spawns workers on it (Graph.Go). Several workers may share one
// Node: the per-module classification workers are all the "classify"
// stage.
type Node struct {
	name string
	lat  *obs.Histogram
}

// stageNodes holds one Node per stage name, shared by every graph and
// inline driver, so a replay looks its stages up instead of building
// them.
var stageNodes = struct {
	mu sync.Mutex
	m  map[string]*Node // guarded by mu
}{m: make(map[string]*Node)}

// Stage returns the node for the named stage, registering it and its
// latency histogram (act_pipeline_<name>_ns on the process-wide
// registry) on first use. Later calls return the same node: a lookup
// allocates nothing.
func Stage(name string) *Node {
	stageNodes.mu.Lock()
	defer stageNodes.mu.Unlock()
	n := stageNodes.m[name]
	if n == nil {
		statNodes.Inc()
		n = &Node{
			name: name,
			lat:  obs.Default.Histogram("act_pipeline_"+name+"_ns", "pipeline stage latency per unit of work, stage "+name),
		}
		stageNodes.m[name] = n
	}
	return n
}

// Span starts a latency measurement against the node's stage histogram.
// Drivers wrap a whole stage execution; batch workers wrap one batch,
// so the histogram reads as per-unit-of-work latency. It sits on the
// replay hot path, so it must stay alloc-free.
//
//act:noalloc
func (n *Node) Span() obs.Span { return obs.StartSpan(n.lat) }

// Run executes fn as the node's work on the calling goroutine, outside
// any graph — the placement of a driver that spawns no workers, such as
// sequential replay. An error is wrapped as "<graph>/<node>: ...", the
// same text Graph.Run produces.
func (n *Node) Run(graph string, fn func() error) error {
	sp := n.Span()
	err := fn()
	sp.End()
	if err != nil {
		err = fmt.Errorf("%s/%s: %w", graph, n.name, err)
	}
	return err
}

// Run executes fn as the node's work on the calling goroutine — the
// driver placement. The error, if any, is recorded as the graph's
// failure and returned.
func (g *Graph) Run(n *Node, fn func() error) error {
	err := n.Run(g.name, fn)
	if err != nil {
		g.fail(err)
	}
	return err
}

// Go spawns one worker goroutine on the node. The worker's error, if
// any, becomes the graph's failure. Wait blocks until every spawned
// worker has returned.
func (g *Graph) Go(n *Node, fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := fn(); err != nil {
			g.fail(fmt.Errorf("%s/%s: %w", g.name, n.name, err))
		}
	}()
}

// fail records the first error and signals cancellation; later errors
// are dropped (they are almost always downstream echoes of the first).
func (g *Graph) fail(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.err == nil {
		g.err = err
		close(g.done)
	}
}

// Done returns a channel closed on the graph's first failure. Senders
// select on it so a dead consumer cannot wedge them.
func (g *Graph) Done() <-chan struct{} { return g.done }

// Err returns the first recorded failure, if any.
func (g *Graph) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// Wait blocks until every spawned worker has returned, then reports the
// graph's first failure. Drivers call it after closing their outgoing
// edges.
func (g *Graph) Wait() error {
	g.wg.Wait()
	return g.Err()
}

// Edge is a bounded typed channel between two stages. The bound
// provides backpressure — a slow consumer stalls its producer instead
// of growing an unbounded queue — and the shared queue-depth gauge
// (act_pipeline_queue_depth) exposes how much work sits between stages.
type Edge[T any] struct {
	g  *Graph
	ch chan T
}

// NewEdge creates an edge with the given buffer depth (minimum 1).
func NewEdge[T any](g *Graph, depth int) *Edge[T] {
	if depth < 1 {
		depth = 1
	}
	return &Edge[T]{g: g, ch: make(chan T, depth)}
}

// Send delivers one item, blocking on backpressure. It returns false —
// without delivering — once the graph has failed, so producers feeding
// a dead consumer unwind instead of blocking forever.
func (e *Edge[T]) Send(v T) bool {
	select {
	case e.ch <- v:
		statQueueDepth.Inc()
		return true
	case <-e.g.done:
		return false
	}
}

// Recv returns the next item; ok is false once the edge is closed and
// drained. A failed upstream closes its edges on unwind, so consumers
// need no separate cancellation path.
func (e *Edge[T]) Recv() (v T, ok bool) {
	v, ok = <-e.ch
	if ok {
		statQueueDepth.Dec()
	}
	return v, ok
}

// Close marks the edge complete; consumers drain what is buffered and
// then observe ok == false.
func (e *Edge[T]) Close() { close(e.ch) }
