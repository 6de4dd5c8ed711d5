package perf

import (
	"math"
	"regexp"
	"slices"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range Workloads {
		digest := func(seed int64) uint64 {
			in, _, err := setupFuncs[w](seed, true)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			return in.inputDigest()
		}
		a, b, c := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two set-ups", w)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w)
		}
	}
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := LoadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, names []string, specs []MetricSpec, bounded bool) {
		var listed []string
		for _, s := range specs {
			listed = append(listed, s.Name)
			if !nameRE.MatchString(s.Name) {
				t.Errorf("%s metric %q: bad name", kind, s.Name)
			}
			if u, ok := units[s.Name]; !ok || u != s.Unit {
				t.Errorf("%s metric %s: unit %q in BENCHMARK.json, %q in the catalog", kind, s.Name, s.Unit, u)
			}
			if s.Better != "higher" && s.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, s.Name, s.Better)
			}
			if bounded != (s.Bound != nil) {
				t.Errorf("%s metric %s: bound present = %v", kind, s.Name, s.Bound != nil)
			}
		}
		for _, n := range names {
			if !slices.Contains(listed, n) {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, n)
			}
		}
		for _, n := range listed {
			if !slices.Contains(names, n) {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, n)
			}
		}
	}
	check("end-to-end", EndToEnd, b.EndToEnd, true)
	check("per-layer", PerLayer, b.PerLayer, false)
	if len(units) != len(EndToEnd)+len(PerLayer) {
		t.Errorf("catalog has %d units for %d metrics", len(units), len(EndToEnd)+len(PerLayer))
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, Workloads) {
		t.Errorf("BENCHMARK.json workloads %v, package runs %v", names, Workloads)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.p)
		if v != c.want || ok != c.ok {
			t.Errorf("p%.0f of %d samples = %v, %v; want %v, %v", 100*c.p, c.n, v, ok, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for the same data.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{Op: 1, ID: 1, Name: "op", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{Op: 1, ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{Op: 1, ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
		{Op: 1, ID: 5, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	lt := make(map[string]layerTime)
	addLayerTimes(lt, spans)
	want := map[string]layerTime{
		"op": {Total: 100, Self: 100 - 50 - 10, Count: 1},
		"a":  {Total: 30, Self: 25, Count: 1},
		"b":  {Total: 60, Self: 60, Count: 2},
		"c":  {Total: 5, Self: 5, Count: 1},
	}
	for name, w := range want {
		if lt[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, lt[name], w)
		}
	}
	if got := topLevel(spans); got != 30+30+30 {
		t.Errorf("topLevel = %d, want 90", got)
	}

	// The tracer folds an operation into its totals when the root ends.
	tr := newTracer()
	for i := 0; i < 2; i++ {
		op := tr.begin("op")
		a := tr.start(op, "a")
		tr.end(tr.start(a, "c"))
		tr.end(a)
		tr.end(op)
	}
	if len(tr.cur) != 0 || len(tr.kept) != 6 || tr.kept[5].ID != 6 || tr.kept[5].Op != 2 {
		t.Errorf("after two operations: %d open spans, kept %+v", len(tr.cur), tr.kept)
	}
	if tr.layers["op"].Count != 2 || tr.layers["a"].Count != 2 || tr.top != tr.layers["a"].Total {
		t.Errorf("totals %+v, top %d", tr.layers, tr.top)
	}
	var none *tracer
	none.end(none.start(none.begin("op"), "a")) // a nil tracer records nothing
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.08
	bench := &Benchmark{EndToEnd: []MetricSpec{{Name: "mrec_per_s", Unit: "Mrec/s", Better: "higher", Bound: &bound}}}
	runs := func(vs ...float64) []*Result {
		var out []*Result
		for _, v := range vs {
			out = append(out, &Result{Workload: "w", Metrics: map[string]Value{"mrec_per_s": {Value: v}}})
		}
		return out
	}
	base := runs(10, 10.1, 9.9, 10.05, 9.95)
	cases := []struct {
		name string
		b    []*Result
		want string
	}{
		{"same", runs(10.02, 9.97, 10.08, 9.92, 10), "same"},
		{"worse", runs(9, 9.1, 8.9, 9.05, 8.95), "worse"},
		{"better", runs(11, 11.1, 10.9, 11.05, 10.95), "better"},
		{"unresolved", runs(8, 12, 9, 11, 10), "unresolved"},
	}
	for _, c := range cases {
		vs := Compare(bench, base, c.b)
		if len(vs) != 1 || vs[0].Verdict != c.want {
			t.Errorf("%s: got %+v, want verdict %s", c.name, vs, c.want)
		}
	}
}

// TestSmoke runs every workload at quick sizes through both phases.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range Workloads {
		r := Run(w, Options{Seed: 1, Seconds: 0.2, TraceSeconds: 0.2, Quick: true})
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d/%d errors=%v", w, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		for name, v := range r.Metrics {
			if !nameRE.MatchString(name) || (!slices.Contains(EndToEnd, name) && !slices.Contains(PerLayer, name)) {
				t.Errorf("%s: emitted metric %q is not in the catalog", w, name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w, name, v.Value)
			}
		}
		for _, name := range append(slices.Clone(EndToEnd), PerLayer...) {
			if _, ok := r.Metrics[name]; !ok {
				t.Errorf("%s: metric %s missing", w, name)
			}
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke run took %v, want under 20s", d)
	}
}
