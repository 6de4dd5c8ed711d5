package act

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates the experiment at quick scale and reports its headline
// number as a benchmark metric; `go test -bench=. -benchmem` therefore
// reproduces the whole evaluation. cmd/actbench prints the full rows,
// and -full there runs the paper-scale versions.

import (
	"testing"

	"act/internal/bench"
	"act/internal/core"
	"act/internal/deps"
	"act/internal/nnhw"
)

func BenchmarkTableIVTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableIV(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.MispredPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avgFP%")
	}
}

func BenchmarkFig7aInvalidDeps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7a(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.FNPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avgFN%")
	}
}

func BenchmarkFig7bNewCode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig7b(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.IncorrectPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avgIncorrect%")
	}
}

func BenchmarkTableVRealBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableV(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		diagnosed, worst := 0, 0
		for _, r := range rows {
			if r.Rank > 0 {
				diagnosed++
				if r.Rank > worst {
					worst = r.Rank
				}
			}
		}
		b.ReportMetric(float64(diagnosed), "diagnosed")
		b.ReportMetric(float64(worst), "worstRank")
	}
}

func BenchmarkTableVIInjectedBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.TableVI(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		diagnosed := 0
		var filter float64
		for _, r := range rows {
			if r.Rank > 0 {
				diagnosed++
			}
			filter += r.FilterPct
		}
		b.ReportMetric(float64(diagnosed), "diagnosed")
		b.ReportMetric(filter/float64(len(rows)), "avgFilter%")
	}
}

func BenchmarkFig8Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8(bench.Quick, nnhw.Config{})
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range rows {
			sum += r.OverheadPct
		}
		b.ReportMetric(sum/float64(len(rows)), "avgOverhead%")
	}
}

func BenchmarkFig9Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig9(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		// Headline: overhead at the default point and the cheapest point.
		for _, r := range rows {
			if r.MulAddUnits == 1 && r.FIFODepth == 8 {
				b.ReportMetric(r.AvgOverhead, "x1fifo8%")
			}
			if r.MulAddUnits == 10 && r.FIFODepth == 16 {
				b.ReportMetric(r.AvgOverhead, "x10fifo16%")
			}
		}
	}
}

func BenchmarkFig10FalseSharing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig10(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Granularity {
			case 8:
				b.ReportMetric(r.MispredPct, "wordFP%")
			case 64:
				b.ReportMetric(r.MispredPct, "line64FP%")
			}
		}
	}
}

func BenchmarkNNDesignComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.NNDesign()
		b.ReportMetric(rows[len(rows)-1].Speedup, "gain10-10-1")
	}
}

func BenchmarkAblationEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationEncoding(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "pair hash" {
				b.ReportMetric(r.FPPct, "pairHashFP%")
			}
		}
	}
}

func BenchmarkAblationNegatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationNegatives(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Variant == "before-last only" {
				b.ReportMetric(r.FNPct, "beforeLastFN%")
			}
		}
	}
}

func BenchmarkAblationRanking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationRanking(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Strategy == "most matched (paper)" {
				b.ReportMetric(r.AvgRank, "paperAvgRank")
			}
			if r.Strategy == "most mismatched" {
				b.ReportMetric(r.AvgRank, "mismatchAvgRank")
			}
		}
	}
}

func BenchmarkAblationQuantization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationQuantization(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.FracBits == 9 {
				b.ReportMetric(r.Disagreement, "disagree@Q6.9")
			}
		}
	}
}

func BenchmarkAblationThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.AblationThreshold(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ThresholdPct == 5 {
				b.ReportMetric(float64(r.ModeSwitches), "switches@5%")
			}
		}
	}
}

// BenchmarkPipelineReplay measures monitoring throughput sequential vs
// parallel on the 4-thread radix trace. The "parSpeedup" metric is the
// parallel/sequential records-per-second ratio — it needs GOMAXPROCS > 1
// to exceed 1.0 (on a multicore host the two-stage pipeline reaches its
// gain; on one CPU the channel hand-off is pure overhead).
func BenchmarkPipelineReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Pipeline(bench.Quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rep.Rows {
			switch r.Config {
			case "sequential":
				b.ReportMetric(r.RecordsPerSec, "seqRec/s")
			case "parallel":
				b.ReportMetric(r.RecordsPerSec, "parRec/s")
				b.ReportMetric(r.Speedup, "parSpeedup")
			}
		}
	}
}

// BenchmarkClassifySteadyState is the zero-allocation contract for the
// classification hot path: one converged testing-mode module fed a
// recurring dependence stream. -benchmem must report 0 allocs/op.
func BenchmarkClassifySteadyState(b *testing.B) {
	nIn := deps.InputLen(deps.EncodeDefault, 3)
	tr := core.NewTracker(core.AlwaysValidBinary(nIn, 8, 1),
		core.TrackerConfig{Module: core.Config{N: 3}})
	m := tr.Module(0)
	ds := make([]deps.Dep, 64)
	for i := range ds {
		ds[i] = deps.Dep{S: 0x1000 + uint64(i)*16, L: 0x2000 + uint64(i)*16}
	}
	for _, d := range ds {
		m.OnDep(d) // warm up: window ring filled, no further growth
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnDep(ds[i&63])
	}
}
