package perf

import (
	"bytes"
	"fmt"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/nn"
	"act/internal/pipeline/stages"
	"act/internal/program"
	"act/internal/ranking"
	"act/internal/rca"
	"act/internal/trace"
	"act/internal/train"
	"act/internal/workloads"
)

// Per-bug input sizes of diagnose-bugs.
const (
	correctSetRuns = 15
	failingRuns    = 20
	correctSetSeed = 50_000  // offset of the correct-set runs in the seed block
	failingSeed    = 100_000 // offset of the failing runs
)

// quickTrain is actdiag's quick training configuration: diagnosis
// searches N >= 2, since one dependence cannot carry an atomicity
// violation's context.
var quickTrain = train.Config{
	Ns: []int{2, 3}, Hs: []int{6, 10}, Seed: 1,
	RandomNegatives: 3,
	SearchFit:       nn.FitConfig{MaxEpochs: 400, Seed: 1},
	FinalFit:        nn.FitConfig{MaxEpochs: 6000, Seed: 1, Patience: 800},
}

// diagnosis is the diagnose-bugs workload. An operation is one
// diagnosis of one failing run: decode the correct-set traces and the
// failing trace, build the Correct Set, deploy, and run the stage graph
// (replay, collect, rank, RCA).
type diagnosis struct {
	bugs []*bugCase
}

// bugCase is one bug's trained model and recorded runs. Traces are held
// as framed trace bytes in memory, so decoding is measured without disk
// noise.
type bugCase struct {
	name         string
	n            int
	enc          deps.Encoder
	nIn, nHidden int
	weights      []float64
	correct      [][]byte
	fails        []*failCase
}

// failCase is one failing run and its reference diagnosis.
type failCase struct {
	trace   []byte
	prog    *program.Program
	match   func(deps.Sequence) bool
	records int // records decoded per diagnosis: the correct set plus this trace

	report, verdicts []byte // reference ranked-report and RCA bytes
	rank             int    // reference rank of the root cause
}

func setupDiagnose(seed int64, quick bool) (instance, setupTimes, error) {
	bugs, fails := workloads.RealBugs(), failingRuns
	if quick {
		b, err := workloads.BugByName("seq")
		if err != nil {
			return nil, setupTimes{}, err
		}
		bugs, fails = []workloads.Bug{b}, 5
	}
	var st setupTimes
	d := &diagnosis{}
	base := seed * seedBlock
	for _, b := range bugs {
		t0 := time.Now()
		runs, err := workloads.CollectOutcome(b, false, 14, 0)
		if err != nil {
			return nil, st, err
		}
		cs, err := workloads.CollectOutcome(b, false, correctSetRuns, base+correctSetSeed)
		if err != nil {
			return nil, st, err
		}
		fs, err := workloads.CollectOutcome(b, true, fails, base+failingSeed)
		if err != nil {
			return nil, st, err
		}
		t1 := time.Now()
		res, err := train.Train(runTraces(runs[:10]), runTraces(runs[10:]), quickTrain)
		if err != nil {
			return nil, st, fmt.Errorf("training %s: %w", b.Name, err)
		}
		t2 := time.Now()
		c := &bugCase{name: b.Name, n: res.N, enc: res.Encoder, nIn: res.Net.NIn,
			nHidden: res.Net.NHidden, weights: res.Net.Flatten(nil)}
		correctRecords := 0
		for _, r := range cs {
			data, err := encodeTrace(r.Trace)
			if err != nil {
				return nil, st, err
			}
			c.correct = append(c.correct, data)
			correctRecords += len(r.Trace.Records)
		}
		for _, r := range fs {
			data, err := encodeTrace(r.Trace)
			if err != nil {
				return nil, st, err
			}
			c.fails = append(c.fails, &failCase{trace: data, prog: r.Program, match: b.Matcher(r.Program),
				records: correctRecords + len(r.Trace.Records)})
		}
		st.collect += t1.Sub(t0) + time.Since(t2)
		st.train += t2.Sub(t1)
		d.bugs = append(d.bugs, c)
	}
	return d, st, nil
}

func runTraces(runs []workloads.Run) []*trace.Trace {
	out := make([]*trace.Trace, len(runs))
	for i, r := range runs {
		out[i] = r.Trace
	}
	return out
}

func encodeTrace(t *trace.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeTrace(b []byte) (*trace.Trace, error) { return trace.Read(bytes.NewReader(b)) }

// deploy builds a fresh tracker with the bug's trained weights, as
// diagnose.Diagnose does.
func (c *bugCase) deploy(f *failCase) *core.Tracker {
	b := core.NewWeightBinary(c.nIn, c.nHidden)
	b.PatchAll(f.prog.NumThreads(), c.weights)
	return core.NewTracker(b, core.TrackerConfig{Module: core.Config{N: c.n, Encoder: c.enc}})
}

func (c *bugCase) provenance(f *failCase) rca.Provenance {
	return rca.Provenance{Program: f.prog, CorrectRuns: len(c.correct), Bug: c.name}
}

// decode decodes the failing trace and the correct-set traces.
func (c *bugCase) decode(f *failCase) (*trace.Trace, []*trace.Trace, error) {
	fail, err := decodeTrace(f.trace)
	if err != nil {
		return nil, nil, err
	}
	correct := make([]*trace.Trace, len(c.correct))
	for i, b := range c.correct {
		if correct[i], err = decodeTrace(b); err != nil {
			return nil, nil, err
		}
	}
	return fail, correct, nil
}

// diagnose is one operation as a user runs it: stages.Run does the
// replay, collection, ranking and RCA.
func (c *bugCase) diagnose(f *failCase) (*stages.Result, *core.Tracker, error) {
	fail, correct, err := c.decode(f)
	if err != nil {
		return nil, nil, err
	}
	set := deps.CollectSequences(correct, deps.ExtractorConfig{N: c.n})
	t := c.deploy(f)
	res, err := stages.Run(t, fail, set, stages.Config{Provenance: c.provenance(f)})
	return res, t, err
}

// diagnoseLayers is the same diagnosis with every layer called on its
// own, each inside a span under one operation span.
func diagnoseLayers(tr *tracer, c *bugCase, f *failCase) (*ranking.Report, *rca.Report, *core.Tracker, error) {
	op := tr.begin("op")
	defer tr.end(op)
	s := tr.start(op, "trace.decode")
	fail, correct, err := c.decode(f)
	tr.end(s)
	if err != nil {
		return nil, nil, nil, err
	}
	s = tr.start(op, "deps.correct_set")
	set := deps.CollectSequences(correct, deps.ExtractorConfig{N: c.n})
	tr.end(s)
	s = tr.start(op, "core.deploy")
	t, l := c.deploy(f), newLayered(c.n)
	tr.end(s)
	l.replay(tr, op, t, fail)
	s = tr.start(op, "stages.collect")
	debug := t.DebugBuffers()
	tr.end(s)
	s = tr.start(op, "ranking.rank")
	rep := ranking.RankWith(debug, set, ranking.MostMatched)
	tr.end(s)
	s = tr.start(op, "rca.analyze")
	prov := c.provenance(f)
	prov.Debug = debug
	verdicts := rca.Analyze(rep, prov)
	tr.end(s)
	return rep, verdicts, t, nil
}

// outputBytes returns the ranked report and RCA verdicts in their
// serialized forms, the bytes a diagnosis is checked by.
func outputBytes(rep *ranking.Report, verdicts *rca.Report) ([]byte, []byte, error) {
	var vb bytes.Buffer
	if err := verdicts.Save(&vb); err != nil {
		return nil, nil, err
	}
	return rep.AppendReport(nil), vb.Bytes(), nil
}

func (d *diagnosis) inputDigest() uint64 {
	h := newDigest()
	for _, c := range d.bugs {
		h.u64(uint64(c.n), uint64(c.nIn), uint64(c.nHidden))
		h.floats(c.weights)
		for _, b := range c.correct {
			h.Write(b)
		}
		for _, f := range c.fails {
			h.Write(f.trace)
		}
	}
	return h.Sum64()
}

// reference diagnoses every failing run through the separately called
// layers; each stages.Run diagnosis must reproduce these bytes.
func (d *diagnosis) reference() error {
	for _, c := range d.bugs {
		for _, f := range c.fails {
			rep, verdicts, _, err := diagnoseLayers(nil, c, f)
			if err != nil {
				return err
			}
			if f.report, f.verdicts, err = outputBytes(rep, verdicts); err != nil {
				return err
			}
			f.rank = rep.RankOf(f.match)
		}
	}
	return nil
}

// checkDiagnosis compares one diagnosis's outputs with f's reference.
func checkDiagnosis(out *passOut, rep *ranking.Report, verdicts *rca.Report, f *failCase) error {
	rb, vb, err := outputBytes(rep, verdicts)
	if err != nil {
		return err
	}
	out.check(bytes.Equal(rb, f.report) && bytes.Equal(vb, f.verdicts) && rep.RankOf(f.match) == f.rank)
	return nil
}

func (d *diagnosis) pass(lat []float64) ([]float64, passOut, error) {
	var out passOut
	for _, c := range d.bugs {
		for _, f := range c.fails {
			s := time.Now()
			res, t, err := c.diagnose(f)
			e := time.Since(s)
			if err != nil {
				return lat, out, fmt.Errorf("diagnosing %s: %w", c.name, err)
			}
			out.busy += e
			lat = append(lat, float64(e.Nanoseconds())/1e3)
			out.stats.Add(t.Stats())
			if err := checkDiagnosis(&out, res.Report, res.RCA, f); err != nil {
				return lat, out, err
			}
		}
	}
	return lat, out, nil
}

func (d *diagnosis) tracedPass(tr *tracer) (passOut, error) {
	var out passOut
	for _, c := range d.bugs {
		for _, f := range c.fails {
			rep, verdicts, t, err := diagnoseLayers(tr, c, f)
			if err != nil {
				return out, fmt.Errorf("diagnosing %s: %w", c.name, err)
			}
			out.stats.Add(t.Stats())
			if err := checkDiagnosis(&out, rep, verdicts, f); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

func (d *diagnosis) shape() passShape {
	var sh passShape
	top1 := 0
	for _, c := range d.bugs {
		for _, f := range c.fails {
			sh.ops++
			sh.records += f.records
			if f.rank == 1 {
				top1++
			}
		}
	}
	sh.top1 = float64(top1) / float64(sh.ops)
	return sh
}

// profile covers the windows each diagnosis's replay classifies: the
// failing trace's dependences on a freshly deployed tracker.
func (d *diagnosis) profile() *windowProfile {
	streams := make([][][][]deps.Dep, len(d.bugs)) // per bug, failing run and thread
	windows := 0
	for i, c := range d.bugs {
		for _, f := range c.fails {
			fail, err := decodeTrace(f.trace)
			if err != nil {
				continue // reference() decoded every trace already
			}
			s := extractStreams(c.n, []*trace.Trace{fail})
			streams[i] = append(streams[i], s)
			for _, ds := range s {
				windows += len(ds)
			}
		}
	}
	p := newWindowProfile(windows)
	for i, c := range d.bugs {
		g := p.group(c.deploy(c.fails[0]).Module(0).Network())
		for j, s := range streams[i] {
			for tid, ds := range s {
				p.addStream(uint64(i)<<32|uint64(j)<<16|uint64(tid), g, c.n, c.enc, ds)
			}
		}
	}
	return p
}
