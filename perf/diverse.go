package perf

import (
	"math/rand"
	"time"

	"act/internal/core"
	"act/internal/deps"
	"act/internal/isa"
	"act/internal/trace"
)

// The monitor-diverse stream. No checked-in kernel defeats a window
// memo (each classifies at most a few dozen distinct windows), so this
// workload synthesizes one that does: store→load channels spread over
// four threads, each channel owning its own slice of a 64k-word address
// space. A load reads a random word of its channel's slice, so its
// dependence is always that channel's store→load pair, and a module's
// window of five consecutive dependences almost never repeats.
const (
	diverseThreads  = 4
	diverseChannels = 256
	diverseWords    = 1 << 16
	diverseN        = 5  // dependences per window
	diverseHidden   = 10 // the 10-10-1 network
	diverseDataBase = 0x1000_0000
)

func setupDiverse(seed int64, quick bool) (instance, setupTimes, error) {
	execs, records := 800, 1000
	if quick {
		execs = 40
	}
	var st setupTimes
	t0 := time.Now()
	ex := diverseExecutions(seed, execs, records)
	t1 := time.Now()
	// Deployed with the always-valid model, every dependence is
	// classified in testing mode and nothing is logged.
	nIn := deps.InputLen(deps.EncodeDefault, diverseN)
	w := core.AlwaysValidBinary(nIn, diverseHidden, 1).Get(0)
	st.collect, st.train = t1.Sub(t0), time.Since(t1)
	d := &deployment{threads: diverseThreads, n: diverseN,
		nIn: nIn, nHidden: diverseHidden, weights: w, execs: ex}
	return &monitor{deploys: []*deployment{d}}, st, nil
}

// diverseExecutions generates execs executions of records records each.
// Half the records are stores, half loads, on uniformly drawn channels
// and words.
func diverseExecutions(seed int64, execs, records int) []*trace.Trace {
	rng := rand.New(rand.NewSource(seed))
	const words = diverseWords / diverseChannels
	type channel struct {
		storeTid, loadTid uint16
		storePC, loadPC   uint64
	}
	var chans [diverseChannels]channel
	for c := range chans {
		st := c % diverseThreads
		ld := (st + 1 + rng.Intn(diverseThreads-1)) % diverseThreads
		chans[c] = channel{
			storeTid: uint16(st), loadTid: uint16(ld),
			storePC: isa.PC(st, c), loadPC: isa.PC(ld, diverseChannels+c),
		}
	}
	var seq uint64
	out := make([]*trace.Trace, execs)
	for e := range out {
		tr := &trace.Trace{Program: "diverse", Seed: seed, Records: make([]trace.Record, records)}
		for i := range tr.Records {
			c := rng.Intn(diverseChannels)
			addr := uint64(diverseDataBase + 8*(c*words+rng.Intn(words)))
			r := trace.Record{Seq: seq, Addr: addr, Store: rng.Intn(2) == 0}
			if r.Store {
				r.Tid, r.PC = chans[c].storeTid, chans[c].storePC
			} else {
				r.Tid, r.PC = chans[c].loadTid, chans[c].loadPC
			}
			tr.Records[i] = r
			seq++
		}
		tr.Steps = seq
		out[e] = tr
	}
	return out
}
