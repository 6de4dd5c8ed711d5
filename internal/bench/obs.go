package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"act/internal/core"
	"act/internal/obs"
	"act/internal/trace"
)

// Observability-overhead experiment. The obs subsystem's contract is
// "zero overhead on the hot path": every always-on instrument is one
// relaxed atomic op, and everything a scrape needs is sampled at scrape
// time. This experiment holds that contract to numbers: the same trace
// is replayed with nobody scraping (instrumented baseline — the
// counters still tick, as they always do) and with a scraper rendering
// the full registry in a tight loop, and the throughput delta is the
// cost of observation. cmd/actbench -exp obs prints the rows and, with
// -json, writes BENCH_obs.json; CI asserts OverheadPct stays within
// budget.

// ObsBudgetPct is the acceptance bound: scraped replay throughput must
// stay within this percentage of the unscraped baseline.
const ObsBudgetPct = 5.0

// ObsRow is one measured configuration.
type ObsRow struct {
	Config        string  `json:"config"`          // "baseline" (no scraper) or "scraped"
	Parallel      bool    `json:"parallel"`        // parallel sharded replay
	Records       int     `json:"records"`         // trace records replayed per pass
	Passes        int     `json:"passes"`          // timed replay passes
	Scrapes       uint64  `json:"scrapes"`         // registry renders during the timed window
	RecordsPerSec float64 `json:"records_per_sec"` // throughput over all passes
	NsPerRecord   float64 `json:"ns_per_record"`   // wall time per replayed record
	GOMAXPROCS    int     `json:"gomaxprocs"`
}

// ObsReport is the JSON document actbench -exp obs -json emits.
type ObsReport struct {
	Workload string   `json:"workload"`
	Rows     []ObsRow `json:"rows"`
	// OverheadPct is the scraped row's throughput loss against its
	// baseline, in percent, for the parallel configuration (the worst
	// case: scrapes contend with worker goroutines).
	OverheadPct float64 `json:"overhead_pct"`
	// WithinBudget reports OverheadPct <= ObsBudgetPct.
	WithinBudget bool `json:"within_budget"`
}

// obsScrapeInterval is the background scraper's cadence: 10ms is three
// orders of magnitude hotter than a production Prometheus interval, so
// an overhead within budget here is conservative.
const obsScrapeInterval = 10 * time.Millisecond

// runObs replays the trace `passes` times, optionally with a background
// scraper rendering the full metric surface (the tracker's registry plus
// obs.Default) far more often than a real scraper would.
func runObs(tr *trace.Trace, threads, passes int, parallel, scraped bool) ObsRow {
	t := pipelineTracker(threads, false)
	reg := obs.NewRegistry()
	t.RegisterMetrics(reg)
	t.Replay(tr) // warm-up: module creation, lazy buffers

	var scrapes uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	if scraped {
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.WritePrometheus(io.Discard)
				obs.Default.WritePrometheus(io.Discard)
				scrapes++
				time.Sleep(obsScrapeInterval)
			}
		}()
	} else {
		close(done)
	}

	start := time.Now()
	for p := 0; p < passes; p++ {
		if parallel {
			t.ReplayParallel(tr, core.ParallelConfig{})
		} else {
			t.Replay(tr)
		}
	}
	elapsed := time.Since(start)
	close(stop)
	<-done

	row := ObsRow{
		Parallel:   parallel,
		Records:    len(tr.Records),
		Passes:     passes,
		Scrapes:    scrapes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if secs := elapsed.Seconds(); secs > 0 {
		row.RecordsPerSec = float64(len(tr.Records)) * float64(passes) / secs
	}
	if n := len(tr.Records) * passes; n > 0 {
		row.NsPerRecord = float64(elapsed.Nanoseconds()) / float64(n)
	}
	return row
}

// Obs measures instrumented replay with and without a live scraper,
// sequentially and in parallel, on the same radix trace the pipeline
// experiment uses. Throughput is noisy at bench scale, so each
// configuration takes the best of three runs before computing the
// overhead — the comparison is about systematic cost, not scheduler
// jitter.
func Obs(m Mode) (*ObsReport, error) {
	tr, passes := pipelineTrace(m)
	// The pipeline experiment's pass counts give a ~1ms timed window on
	// this trace — too short for a cadenced scraper to register at all.
	// Stretch the window well past the scrape interval so the measured
	// delta is the scraper's steady-state duty cycle, not startup noise.
	passes *= 25
	threads := 4
	rep := &ObsReport{Workload: "radix"}
	best := func(parallel, scraped bool) ObsRow {
		var b ObsRow
		for i := 0; i < 3; i++ {
			r := runObs(tr, threads, passes, parallel, scraped)
			if r.RecordsPerSec > b.RecordsPerSec {
				b = r
			}
		}
		return b
	}
	for _, parallel := range []bool{false, true} {
		base := best(parallel, false)
		base.Config = "baseline"
		scr := best(parallel, true)
		scr.Config = "scraped"
		rep.Rows = append(rep.Rows, base, scr)
		if parallel && base.RecordsPerSec > 0 {
			rep.OverheadPct = 100 * (base.RecordsPerSec - scr.RecordsPerSec) / base.RecordsPerSec
		}
	}
	if rep.OverheadPct < 0 {
		rep.OverheadPct = 0 // scraped run came out faster: noise floor
	}
	rep.WithinBudget = rep.OverheadPct <= ObsBudgetPct
	return rep, nil
}

// RenderObs renders the report as a table.
func RenderObs(rep *ObsReport) string {
	out := make([]string, 0, len(rep.Rows))
	for _, r := range rep.Rows {
		mode := "sequential"
		if r.Parallel {
			mode = "parallel"
		}
		out = append(out, fmt.Sprintf("%s\t%s\t%.0f\t%.1f\t%d",
			mode, r.Config, r.RecordsPerSec, r.NsPerRecord, r.Scrapes))
	}
	verdict := "within"
	if !rep.WithinBudget {
		verdict = "OVER"
	}
	return table("Mode\tConfig\tRecords/s\tns/record\tScrapes", out) +
		fmt.Sprintf("(workload %s, GOMAXPROCS=%d; parallel scrape overhead %.2f%%, %s the %.0f%% budget)\n",
			rep.Workload, rep.Rows[0].GOMAXPROCS, rep.OverheadPct, verdict, ObsBudgetPct)
}

// MarshalObs renders the report as the BENCH_obs.json bytes.
func MarshalObs(rep *ObsReport) ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}
