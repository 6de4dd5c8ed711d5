// Command actperf runs ACT's benchmark (package act/perf).
//
// Usage, from the root of the repository:
//
//	bash perf/run.sh -workload all                  # every workload, seed 1
//	bash perf/run.sh -workload monitor-diverse -seed 2 -seconds 10 -trace 0
//	bash perf/run.sh -quick                         # smoke sizes, 0.2 s phases
//	bash perf/run.sh compare A.jsonl... -- B.jsonl...
//
// A run prints every metric as "workload metric value unit", appends
// its result to the -out file, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// only the timed phase runs and the end-to-end metrics are reported,
// with -trace 1 only the traced phase and the per-layer metrics; by
// default both. It exits 1 when any output mismatched its reference or
// the run failed.
//
// compare reads results files and judges each end-to-end metric of each
// workload against its direction and bound in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"

	"act/perf"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase (of the traced phase with -trace 1)")
		traceArg = flag.Int("trace", -1, "0: timed phase only; 1: traced phase only; -1: both")
		quick    = flag.Bool("quick", false, "smoke sizes: one kernel or bug per workload, 0.2 s phases")
		out      = flag.String("out", "perf/out/results.jsonl", "results file each run's result is appended to")
		spans    = flag.String("spans", "perf/out", "directory for <workload>.spans.jsonl")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)

	o := perf.Options{Seed: *seed, Quick: *quick, SpanDir: *spans}
	switch *traceArg {
	case 0:
		o.Seconds = *seconds
	case 1:
		o.TraceSeconds = *seconds
	case -1:
		o.Seconds, o.TraceSeconds = *seconds, 5
	default:
		fatal(fmt.Errorf("-trace must be 0, 1 or -1"))
	}
	if *quick {
		o.Seconds, o.TraceSeconds = min(o.Seconds, 0.2), min(o.TraceSeconds, 0.2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = perf.Workloads
	} else if !slices.Contains(perf.Workloads, *workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}

	// The summary line: one workload's metrics under their own names,
	// several workloads' under workload/metric.
	type summary struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]perf.Value `json:"metrics"`
	}
	sum := summary{Correct: true, Metrics: map[string]perf.Value{}}
	for _, name := range names {
		res := perf.Run(name, o)
		for _, m := range append(slices.Clone(perf.EndToEnd), perf.PerLayer...) {
			if v, ok := res.Metrics[m]; ok {
				fmt.Printf("%s %s %.6g %s\n", name, m, v.Value, v.Unit)
				key := m
				if len(names) > 1 {
					key = name + "/" + m
				}
				sum.Metrics[key] = v
			}
		}
		for _, c := range res.Claims {
			if !c.OK {
				fmt.Fprintf(os.Stderr, "actperf: %s: claim %s %s does not hold (%.4g)\n", name, c.Name, c.Rule, c.Got)
			}
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "actperf: %s: %s\n", name, e)
		}
		if res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "actperf: %s: %d of %d checked operations mismatched their reference\n",
				name, res.Failed, res.Attempted)
		}
		if err := perf.AppendResult(*out, res); err != nil {
			fatal(err)
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// compare implements "actperf compare [-bench FILE] A... -- B...".
func compare(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with each metric's direction and bound")
	fs.Parse(args)
	rest := fs.Args()
	i := slices.Index(rest, "--")
	if i <= 0 || i == len(rest)-1 {
		fmt.Fprintln(os.Stderr, "usage: actperf compare [-bench FILE] A.jsonl... -- B.jsonl...")
		return 2
	}
	bench, err := perf.LoadBenchmark(*benchPath)
	if err != nil {
		fatal(err)
	}
	a, err := perf.ReadResults(rest[:i]...)
	if err != nil {
		fatal(err)
	}
	b, err := perf.ReadResults(rest[i+1:]...)
	if err != nil {
		fatal(err)
	}
	if err := perf.WriteComparison(os.Stdout, perf.Compare(bench, a, b)); err != nil {
		fatal(err)
	}
	return 0
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "actperf:", err)
	os.Exit(1)
}
