package perf

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer, recorded from outside the
// program around the layer's public function. Spans of one operation
// share Op; Parent is the ID of the enclosing span, 0 for the root.
type Span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans held for the span file. Every span
// still counts in the layer totals; holding all of them would grow the
// heap the garbage collector scans, and with it the very layer times
// being measured (diagnose-bugs allocates about 1 MiB per operation).
const maxKeptSpans = 1 << 15

// tracer records a traced phase's spans. When an operation's root span
// ends, its spans are folded into per-layer totals and, while fewer than
// maxKeptSpans are held, kept for the span file. A nil *tracer records
// nothing, so the same decomposition code serves the untraced reference
// computation.
type tracer struct {
	base   time.Time
	op     int
	nextID int
	cur    []Span // the open operation's spans, in start order
	kept   []Span
	layers map[string]layerTime
	top    int64 // summed durations of the spans directly under a root
}

func newTracer() *tracer { return &tracer{base: time.Now(), layers: make(map[string]layerTime)} }

// begin starts a new operation and returns its root span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.op++
	return t.start(0, name)
}

// start opens a span under parent and returns its ID.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.nextID++
	t.cur = append(t.cur, Span{Op: t.op, ID: t.nextID, Parent: parent, Name: name,
		Start: int64(time.Since(t.base))})
	return t.nextID
}

// end closes span id; closing a root span completes the operation.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.cur[id-t.cur[0].ID]
	s.End = int64(time.Since(t.base))
	if s.Parent != 0 {
		return
	}
	addLayerTimes(t.layers, t.cur)
	t.top += topLevel(t.cur)
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, t.cur...)
	}
	t.cur = t.cur[:0]
}

// layerTime is one span name's accumulated time.
type layerTime struct {
	Total int64 // summed durations
	Self  int64 // summed durations minus the time child spans cover
	Count int
}

// addLayerTimes accumulates spans into dst by name. A span's self time
// is its duration minus the union of its children's intervals, clipped
// to the span, so overlapping or out-of-bounds children are not
// subtracted twice.
func addLayerTimes(dst map[string]layerTime, spans []Span) {
	var kids []Span
	for _, s := range spans {
		kids = kids[:0]
		for _, k := range spans {
			if k.Parent == s.ID {
				kids = append(kids, k)
			}
		}
		lt := dst[s.Name]
		d := s.End - s.Start
		lt.Total += d
		lt.Self += d - covered(s, kids)
		lt.Count++
		dst[s.Name] = lt
	}
}

// covered returns how much of span p's interval the union of kids
// covers. It sorts kids.
func covered(p Span, kids []Span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum int64
	cur := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, p.End)
		if hi > lo {
			sum += hi - lo
			cur = hi
		}
	}
	return sum
}

// topLevel sums the durations of the spans directly under a root span:
// the layers that make up an operation.
func topLevel(spans []Span) int64 {
	var sum int64
	for _, s := range spans {
		for _, r := range spans {
			if r.Parent == 0 && s.Parent == r.ID {
				sum += s.End - s.Start
				break
			}
		}
	}
	return sum
}

// writeSpans writes the spans as JSON lines to path, replacing the file.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
