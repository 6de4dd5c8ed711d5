package core

import (
	"io"
	"sync"
	"testing"

	"act/internal/deps"
	"act/internal/obs"
)

// TestReplayParallelScrapeDuringReplay pins the Stats race fix: a
// metrics scrape (StatsSnapshot plus a registry render, exactly what an
// actd /metrics hit does) must be safe while ReplayParallel's workers
// are classifying. The -race run in CI is the actual assertion; the
// value checks below only pin that snapshots are coherent sums.
// The TestReplayParallel name prefix keeps it inside CI's -race regex.
func TestReplayParallelScrapeDuringReplay(t *testing.T) {
	nIn := deps.InputLen(deps.EncodeDefault, 2)
	tr := randTrace(11, 8, 4000)
	tk := NewTracker(AlwaysValidBinary(nIn, 6, 8), TrackerConfig{
		Module: Config{N: 2, Quantized: true},
	})
	reg := obs.NewRegistry()
	tk.RegisterMetrics(reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tk.StatsSnapshot()
			if s.Sequences > s.Deps {
				t.Errorf("torn snapshot: %d sequences from %d deps", s.Sequences, s.Deps)
				return
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			tk.Generations()
			tk.Modules()
		}
	}()

	for i := 0; i < 3; i++ {
		tk.ReplayParallel(tr, ParallelConfig{Batch: 7, Depth: 2})
	}
	close(stop)
	wg.Wait()

	// After the replays quiesce, the snapshot equals what an identical
	// unscraped tracker reports: scraping is observation, not mutation.
	ref := NewTracker(AlwaysValidBinary(nIn, 6, 8), TrackerConfig{
		Module: Config{N: 2, Quantized: true},
	})
	for i := 0; i < 3; i++ {
		ref.Replay(tr)
	}
	if got, want := tk.StatsSnapshot(), ref.StatsSnapshot(); got != want {
		t.Fatalf("scraped replay diverged:\ngot  %+v\nwant %+v", got, want)
	}
}
