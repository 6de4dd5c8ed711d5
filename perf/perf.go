// Package perf is ACT's benchmark: four workloads that measure what the
// system's two kinds of users pay. The production run pays the always-on
// monitor's cost per memory record (monitor-steady, monitor-adaptive,
// monitor-diverse); the developer waits for the offline diagnosis of a
// failure (diagnose-bugs).
//
// A run sets the workload up from a seed (input generation plus
// training, repeated to time it), then measures in two phases that never
// interleave. The timed phase replays passes with tracing off and yields
// the end-to-end metrics. The traced phase calls each layer's public
// function on its own, records a span around every call, and yields the
// per-layer metrics. Every pass of both phases is checked against
// reference outputs computed during set-up.
//
// The load model is one process and one client goroutine in a closed
// loop, with GOMAXPROCS set to 1 by the command: on a two-core machine
// the garbage collector then runs on the measured thread instead of
// competing for the other core, which keeps run-to-run spread low.
package perf

import (
	"bufio"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"act/internal/core"
)

// Workloads lists the benchmark's workloads in run order.
var Workloads = []string{"monitor-steady", "monitor-adaptive", "monitor-diverse", "diagnose-bugs"}

// setupFuncs builds each workload's instance from a seed.
var setupFuncs = map[string]func(seed int64, quick bool) (instance, setupTimes, error){
	"monitor-steady":   setupSteady,
	"monitor-adaptive": setupAdaptive,
	"monitor-diverse":  setupDiverse,
	"diagnose-bugs":    setupDiagnose,
}

// Options configures one run of one workload.
type Options struct {
	Seed int64
	// Seconds is how long the timed phase measures; TraceSeconds how long
	// the traced phase does. A phase with a non-positive length is skipped.
	Seconds      float64
	TraceSeconds float64
	// Quick shrinks every workload to one kernel or bug with few
	// executions, for smoke tests.
	Quick bool
	// SpanDir, when set, receives <workload>.spans.jsonl from the traced
	// phase.
	SpanDir string
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Claim is one workload property the traced phase checks, such as the
// share of dependences classified in online-training mode.
type Claim struct {
	Name string  `json:"name"`
	Rule string  `json:"rule"`
	Got  float64 `json:"got"`
	OK   bool    `json:"ok"`
}

// Result is one run of one workload.
type Result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Quick      bool   `json:"quick,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Correct is false when any checked output mismatched its reference,
	// set-up was not deterministic, or the run failed.
	Correct bool `json:"correct"`
	// Attempted counts checked operations: a monitor pass (its digest)
	// or a single diagnosis. Failed counts those that mismatched.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Sample counts behind the metrics: timed passes, timed operations
	// (latency samples) and traced passes.
	Passes       int              `json:"passes"`
	Ops          int              `json:"ops"`
	TracedPasses int              `json:"traced_passes"`
	Metrics      map[string]Value `json:"metrics"`
	Claims       []Claim          `json:"claims,omitempty"`
	Errors       []string         `json:"errors,omitempty"`
}

func (r *Result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("perf: metric " + name + " is not in the catalog")
	}
	r.Metrics[name] = Value{Value: v, Unit: unit}
}

func (r *Result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// setupTimes splits a set-up into its two phases.
type setupTimes struct {
	collect time.Duration // generating or collecting the input executions
	train   time.Duration // offline training (or building the fixed model)
}

// instance is a workload after set-up: its inputs and models, and the
// reference outputs every pass is checked against.
type instance interface {
	// inputDigest hashes the generated inputs and trained models, so
	// repeated set-ups can be checked for determinism.
	inputDigest() uint64
	// reference computes the outputs every pass must reproduce.
	reference() error
	// pass runs one pass with tracing off, appending each operation's
	// latency in microseconds to lat.
	pass(lat []float64) ([]float64, passOut, error)
	// tracedPass runs one pass with each layer called on its own,
	// recording spans on tr.
	tracedPass(tr *tracer) (passOut, error)
	// profile replays the pass's dependence streams and returns the
	// windows its modules classify, sampled for forward timing.
	profile() *windowProfile
	// shape describes one pass.
	shape() passShape
}

// passShape is the fixed work of one pass.
type passShape struct {
	records int     // trace records processed
	ops     int     // operations (latency samples)
	top1    float64 // share of diagnoses ranking the root cause first (diagnose-bugs only)
}

// passOut is what one pass reports besides its latencies.
type passOut struct {
	busy   time.Duration // time inside the measured calls; output checks excluded
	checks int
	failed int
	stats  core.Stats // summed over the pass's trackers
}

// minPasses is the floor on timed passes per run.
const minPasses = 20

// The tail latency reported is the 90th percentile of each group of
// whole passes holding at least tailGroup operations (so ten lie beyond
// it), median over groups: a burst of interference from outside the
// process moves one group's value, not the result. The tail is p90, not
// p99, because for operations of tens of microseconds the p99 measures
// the host's interrupts and preemptions more than the program: it moves
// by 30-60% between runs on the same inputs, while p90 moves with p50.
const (
	tailP     = 0.90
	tailGroup = 10 * minTail
)

// Run sets up the named workload and measures it.
func Run(name string, o Options) *Result {
	res := &Result{Workload: name, Seed: o.Seed, Quick: o.Quick, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Correct: true, Metrics: map[string]Value{}}
	setup, ok := setupFuncs[name]
	if !ok {
		res.fail(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(Workloads, ", ")))
		return res
	}
	// Set-up time is the median of three set-ups when it is reported;
	// the traced phase alone needs the inputs only once.
	reps := 1
	if o.Seconds > 0 && !o.Quick {
		reps = 3
	}
	var inst instance
	var digest uint64
	var setupS, collectS, trainS []float64
	for i := 0; i < reps; i++ {
		inst = nil
		runtime.GC()
		start := time.Now()
		in, st, err := setup(o.Seed, o.Quick)
		d := time.Since(start)
		if err != nil {
			res.fail(fmt.Errorf("set-up: %w", err))
			return res
		}
		inst = in
		setupS = append(setupS, d.Seconds())
		collectS = append(collectS, st.collect.Seconds())
		trainS = append(trainS, st.train.Seconds())
		if g := inst.inputDigest(); i == 0 {
			digest = g
		} else if g != digest {
			res.fail(fmt.Errorf("set-up %d generated different inputs from set-up 1", i+1))
		}
	}
	if err := inst.reference(); err != nil {
		res.fail(fmt.Errorf("reference outputs: %w", err))
		return res
	}
	// Warm-up pass: lazy initialization and map growth are not measured.
	_, warm, err := inst.pass(nil)
	if err != nil {
		res.fail(err)
		return res
	}
	res.count(warm)
	// Return set-up's garbage to the OS, so resident memory measures the
	// workload rather than how much of set-up the scavenger has released.
	debug.FreeOSMemory()

	if o.Seconds > 0 {
		if err := timedPhase(res, inst, o); err != nil {
			res.fail(err)
			return res
		}
		res.set("setup_s", median(setupS))
	}
	if o.TraceSeconds > 0 {
		if err := tracedPhase(res, inst, o); err != nil {
			res.fail(err)
			return res
		}
		res.set("workloads.collect_s", median(collectS))
		res.set("train.train_s", median(trainS))
	}
	return res
}

// count folds one pass's checks into the result.
func (r *Result) count(out passOut) {
	r.Attempted += out.checks
	r.Failed += out.failed
	if out.failed > 0 {
		r.Correct = false
	}
}

// timedPhase runs passes with tracing off for o.Seconds and at least
// minPasses, and sets the end-to-end metrics.
func timedPhase(res *Result, inst instance, o Options) error {
	sh := inst.shape()
	var lat, rates, rss []float64
	var tails []float64 // tail percentile of each group of passes
	group := 0          // index in lat of the open group's first operation
	minN := minPasses
	if o.Quick {
		minN = 2
	}
	start := time.Now()
	for n := 0; n < minN || time.Since(start).Seconds() < o.Seconds; n++ {
		var out passOut
		var err error
		if lat, out, err = inst.pass(lat); err != nil {
			return err
		}
		res.count(out)
		res.Passes++
		rates = append(rates, float64(sh.records)/out.busy.Seconds()/1e6)
		mb, err := residentMB()
		if err != nil {
			return err
		}
		rss = append(rss, mb)
		if len(lat)-group >= tailGroup {
			v, _ := percentile(lat[group:], tailP)
			tails = append(tails, v)
			group = len(lat)
		}
	}
	res.Ops = len(lat)
	res.set("mrec_per_s", median(rates))
	if v, ok := percentile(lat, 0.50); ok {
		res.set("op_us_p50", v)
	}
	if len(tails) == 0 {
		return fmt.Errorf("%d operations are too few for a p90", len(lat))
	}
	res.set("op_us_p90", median(tails))
	res.set("rss_mb", median(rss))
	return nil
}

// tracedPhase alternates untraced and traced passes for o.TraceSeconds
// and sets the per-layer metrics. The untraced passes give the
// end-to-end time the layer shares divide by; alternating keeps a drift
// in machine speed from showing up as unattributed time, and taking
// every time as a median over passes keeps a burst of interference in
// one pass from doing so.
func tracedPhase(res *Result, inst instance, o Options) error {
	sh := inst.shape()
	// The profile is dropped before the passes, so it does not swell the
	// heap they run with.
	prof := inst.profile()
	fwd, distinct := prof.forwardNS(o.Quick), prof.distinctRatio()
	prof = nil

	tr := newTracer()
	var st, untracedSt core.Stats
	var busy, tops []float64
	perPass := make(map[string][]float64) // each layer's span time in each traced pass
	prev, prevTop := map[string]layerTime{}, int64(0)
	var rt runtimeSample
	start := time.Now()
	for len(busy) < 2 || time.Since(start).Seconds() < o.TraceSeconds {
		rt0 := readRuntime()
		_, out, err := inst.pass(nil)
		if err != nil {
			return err
		}
		rt = rt.add(readRuntime().sub(rt0))
		res.count(out)
		untracedSt.Add(out.stats)
		busy = append(busy, out.busy.Seconds())

		if out, err = inst.tracedPass(tr); err != nil {
			return err
		}
		res.count(out)
		st.Add(out.stats)
		for name, lt := range tr.layers {
			perPass[name] = append(perPass[name], float64(lt.Total-prev[name].Total))
		}
		tops = append(tops, float64(tr.top-prevTop))
		prev, prevTop = maps.Clone(tr.layers), tr.top
	}
	res.TracedPasses = len(busy)
	if o.SpanDir != "" {
		if err := writeSpans(filepath.Join(o.SpanDir, res.Workload+".spans.jsonl"), tr.kept); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}

	p := float64(len(busy))
	e2eNS := median(busy) * 1e9            // an untraced pass
	layerNS := func(name string) float64 { // a traced pass's time in the layer
		if len(perPass[name]) == 0 {
			return 0
		}
		return median(perPass[name])
	}
	for _, l := range layerShares {
		res.set(l+"_share", layerNS(l)/e2eNS)
	}
	depsPerPass := float64(st.Deps) / p
	res.set("deps.extract_ns_per_record", layerNS("deps.extract")/float64(sh.records))
	res.set("core.classify_ns_per_dep", layerNS("core.classify")/max(depsPerPass, 1))
	deploy := tr.layers["core.deploy"]
	res.set("core.deploy_us", float64(deploy.Total)/1e3/float64(max(deploy.Count, 1)))
	res.set("core.replay_us", layerNS("core.replay")/1e3/float64(sh.ops))
	res.set("pipeline.call_us", layerNS("pipeline.call")/1e3/float64(sh.ops))
	res.set("nn.forward_ns_per_window", fwd)
	res.set("nn.forward_share", fwd*float64(st.Sequences)/p/e2eNS)
	res.set("layers.unattributed_share", 1-median(tops)/e2eNS)

	perDep := func(x uint64) float64 { return float64(x) / float64(max(st.Deps, 1)) }
	res.set("core.training_dep_share", perDep(st.TrainingDeps))
	res.set("core.updates_per_kdep", 1000*perDep(st.Updates))
	res.set("core.mode_switches", float64(st.ModeSwitches)/p)
	res.set("core.recoveries", float64(st.Recoveries)/p)
	res.set("core.invalid_ratio", float64(st.PredictedInvalid)/float64(max(st.Sequences, 1)))
	res.set("deps.deps_per_record", float64(st.Deps)/(p*float64(sh.records)))
	res.set("deps.distinct_window_ratio", distinct)
	res.set("rca.root_cause_top1_ratio", sh.top1)
	res.set("core.alloc_bytes_per_dep", rt.allocBytes/float64(max(untracedSt.Deps, 1)))
	res.set("runtime.alloc_kib_per_op", rt.allocBytes/1024/(p*float64(sh.ops)))
	res.set("runtime.gc_cpu_share", rt.gcCPU/max(rt.totalCPU, 1e-9))
	res.Claims = claims(res)
	return nil
}

// layerShares names the layers whose share of the untraced pass time is
// reported as <name>_share. A layer a workload does not run reports 0.
var layerShares = []string{
	"trace.decode", "deps.correct_set", "core.deploy", "core.replay", "pipeline.call",
	"deps.extract", "core.classify", "stages.collect", "ranking.rank", "rca.analyze",
}

// claims checks the properties each workload was chosen for.
func claims(r *Result) []Claim {
	get := func(n string) float64 { return r.Metrics[n].Value }
	var out []Claim
	add := func(name, rule string, ok bool) {
		out = append(out, Claim{Name: name, Rule: rule, Got: get(name), OK: ok})
	}
	unattr := get("layers.unattributed_share")
	add("layers.unattributed_share", "|x| <= 0.10", math.Abs(unattr) <= 0.10)
	switch r.Workload {
	case "monitor-steady":
		add("core.training_dep_share", "< 0.05", get("core.training_dep_share") < 0.05)
	case "monitor-adaptive":
		add("core.training_dep_share", ">= 0.25", get("core.training_dep_share") >= 0.25)
	case "monitor-diverse":
		add("deps.distinct_window_ratio", ">= 0.99", get("deps.distinct_window_ratio") >= 0.99)
	case "diagnose-bugs":
		add("core.replay_share", "< 0.25", get("core.replay_share") < 0.25)
	}
	return out
}

// runtimeSample is a reading of the runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCPU, totalCPU float64
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// residentMB reads the process's resident set size (VmRSS) in MiB.
func residentMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("resident set size: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("resident set size: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("resident set size: no VmRSS in /proc/self/status")
}
