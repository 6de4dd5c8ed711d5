package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Benchmark is the part of BENCHMARK.json the comparison reads.
type Benchmark struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric of BENCHMARK.json. Bound, set on end-to-end
// metrics only, is the share of the base median by which the metric may
// worsen before a change counts as a regression.
type MetricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// LoadBenchmark reads BENCHMARK.json.
func LoadBenchmark(path string) (*Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// AppendResult appends r as one JSON line to the results file at path.
func AppendResult(path string, r *Result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadResults reads results files written by AppendResult.
func ReadResults(paths ...string) ([]*Result, error) {
	var out []*Result
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var r Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				f.Close()
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			out = append(out, &r)
		}
		err = sc.Err()
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
	}
	return out, nil
}

// Summary is one side's runs of one metric on one workload.
type Summary struct {
	N              int
	Q1, Median, Q3 float64
}

func summarize(xs []float64) Summary {
	q1, q2, q3 := quartiles(xs)
	return Summary{N: len(xs), Q1: q1, Median: q2, Q3: q3}
}

// spread is the distance between the quartiles as a share of the median.
func (s Summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// Verdict is the comparison of one end-to-end metric on one workload.
type Verdict struct {
	Workload, Metric, Unit string
	A, B                   Summary
	// Worse is how much worse B's median is than A's, as a share of A's
	// median (negative when B is better).
	Worse   float64
	Bound   float64
	Verdict string // same, better, worse or unresolved
}

// Compare judges every end-to-end metric of every workload present on
// both sides, base runs a against changed runs b:
//
//   - unresolved: either side's quartile spread is wider than the
//     bound, unless every run of b is better than every run of a;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b beats a in at least nine tenths of all run pairs and the
//     medians differ by more than a's quartile spread;
//   - same: otherwise.
func Compare(bench *Benchmark, a, b []*Result) []Verdict {
	var out []Verdict
	for _, w := range workloadsIn(a, b) {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, w, m.Name), values(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 || m.Bound == nil {
				continue
			}
			v := Verdict{Workload: w, Metric: m.Name, Unit: m.Unit, A: summarize(va), B: summarize(vb), Bound: *m.Bound}
			sign := 1.0 // worse when larger
			if m.Better == "higher" {
				sign = -1
			}
			v.Worse = sign * (v.B.Median - v.A.Median) / math.Abs(v.A.Median)
			better := func(x, y float64) bool { return sign*(x-y) < 0 }
			wins, all := 0, true
			for _, x := range vb {
				for _, y := range va {
					if better(x, y) {
						wins++
					} else {
						all = false
					}
				}
			}
			switch {
			case math.Max(v.A.spread(), v.B.spread()) > v.Bound:
				v.Verdict = "unresolved"
				if all {
					v.Verdict = "better"
				}
			case v.Worse > v.Bound:
				v.Verdict = "worse"
			case 10*wins >= 9*len(va)*len(vb) && -v.Worse*math.Abs(v.A.Median) > v.A.Q3-v.A.Q1:
				v.Verdict = "better"
			default:
				v.Verdict = "same"
			}
			out = append(out, v)
		}
	}
	return out
}

// workloadsIn lists the workloads with results on both sides, sorted.
func workloadsIn(a, b []*Result) []string {
	seen := make(map[string]int)
	for _, r := range a {
		seen[r.Workload] |= 1
	}
	for _, r := range b {
		seen[r.Workload] |= 2
	}
	var out []string
	for w, s := range seen {
		if s == 3 {
			out = append(out, w)
		}
	}
	sort.Strings(out)
	return out
}

func values(rs []*Result, workload, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// WriteComparison renders verdicts as a table.
func WriteComparison(w io.Writer, vs []Verdict) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tworse by\tbound\tverdict")
	side := func(s Summary) string {
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", s.Median, s.Q1, s.Q3, s.N)
	}
	for _, v := range vs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", v.Workload, v.Metric, v.Unit,
			side(v.A), side(v.B), 100*v.Worse, 100*v.Bound, v.Verdict)
	}
	return tw.Flush()
}
