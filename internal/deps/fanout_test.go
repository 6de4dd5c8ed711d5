package deps

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestFanoutFlushBarrierQuiesce drives the checkpoint quiesce protocol:
// Flush pushes every partial batch out, Barrier injects a token per
// stream, and once the WaitGroup clears every dependence pushed before
// the barrier has been consumed and the workers are parked — yet the
// streams stay open and keep flowing afterwards.
func TestFanoutFlushBarrierQuiesce(t *testing.T) {
	const threads, perRound, rounds = 4, 37, 3 // 37 % batch != 0: partials at every flush

	var mu sync.Mutex
	consumed := make(map[uint16]int)
	var workers sync.WaitGroup
	fo := NewFanout(FanoutConfig{Batch: 16, Depth: 2, Pool: &BatchPool{}}, func(tid uint16, s *FanStream) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				batch, ok := s.Next()
				if !ok {
					return
				}
				mu.Lock()
				consumed[tid] += len(batch)
				mu.Unlock()
			}
		}()
	})

	pushed := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			for tid := uint16(0); tid < threads; tid++ {
				fo.Push(tid, Dep{S: uint64(pushed), L: uint64(pushed) + 1})
			}
			pushed++
		}

		fo.Flush()
		var bwg sync.WaitGroup
		if n := fo.Barrier(&bwg); n != threads {
			t.Fatalf("round %d: Barrier reached %d streams, want %d", round, n, threads)
		}
		bwg.Wait()

		// Quiesced: every dependence pushed so far has been consumed.
		mu.Lock()
		for tid := uint16(0); tid < threads; tid++ {
			if consumed[tid] != pushed {
				t.Fatalf("round %d: tid %d consumed %d deps at barrier, want %d",
					round, tid, consumed[tid], pushed)
			}
		}
		mu.Unlock()
	}

	fo.Close()
	workers.Wait()
	for tid := uint16(0); tid < threads; tid++ {
		if consumed[tid] != pushed {
			t.Fatalf("tid %d consumed %d deps after close, want %d", tid, consumed[tid], pushed)
		}
	}
}

// TestFanoutBarrierPublishesState checks the memory-ordering claim the
// checkpoint writer relies on: a value the worker writes while
// processing a batch is visible to the producer after Flush+Barrier+Wait
// without any additional synchronization.
func TestFanoutBarrierPublishesState(t *testing.T) {
	var state [2]uint64 // written by workers, read by producer at barriers
	var workers sync.WaitGroup
	fo := NewFanout(FanoutConfig{Batch: 8, Depth: 2, Pool: &BatchPool{}}, func(tid uint16, s *FanStream) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				batch, ok := s.Next()
				if !ok {
					return
				}
				for _, d := range batch {
					state[tid] += d.S // plain write: Barrier must publish it
				}
			}
		}()
	})

	var want [2]uint64
	for i := 0; i < 100; i++ {
		for tid := uint16(0); tid < 2; tid++ {
			fo.Push(tid, Dep{S: uint64(i)})
			want[tid] += uint64(i)
		}
		if i%33 == 0 {
			fo.Flush()
			var bwg sync.WaitGroup
			fo.Barrier(&bwg)
			bwg.Wait()
			if state != want {
				t.Fatalf("at push %d: state %v after barrier, want %v", i, state, want)
			}
		}
	}
	fo.Close()
	workers.Wait()
	if state != want {
		t.Fatalf("final state %v, want %v", state, want)
	}
}

// TestFanoutBarrierSkipsIdleStreams: Barrier only tokens streams that
// exist, and a flush with nothing staged delivers nothing.
func TestFanoutBarrierSkipsIdleStreams(t *testing.T) {
	var delivered atomic.Int64
	var workers sync.WaitGroup
	fo := NewFanout(FanoutConfig{Batch: 4, Depth: 1, Pool: &BatchPool{}}, func(tid uint16, s *FanStream) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for {
				batch, ok := s.Next()
				if !ok {
					return
				}
				delivered.Add(int64(len(batch)))
			}
		}()
	})

	var bwg sync.WaitGroup
	if n := fo.Barrier(&bwg); n != 0 {
		t.Fatalf("Barrier on an empty fanout reached %d streams", n)
	}
	bwg.Wait()

	fo.Push(3, Dep{S: 1}) // only tid 3 ever exists
	fo.Flush()
	if n := fo.Barrier(&bwg); n != 1 {
		t.Fatalf("Barrier reached %d streams, want 1", n)
	}
	bwg.Wait()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("delivered %d deps, want 1", got)
	}

	// A second Flush with nothing staged must not emit an empty batch.
	fo.Flush()
	fo.Close()
	workers.Wait()
	if got := delivered.Load(); got != 1 {
		t.Fatalf("idle flush delivered extra deps: total %d, want 1", got)
	}
}

// TestFanoutPoolReusesBuffers runs fan-outs back to back on one
// BatchPool: after the first, every later fan-out takes all its batch
// buffers from the pool and hands all of them back, and each stream
// still delivers its dependences in order.
func TestFanoutPoolReusesBuffers(t *testing.T) {
	const threads, perThread, batch, depth = 3, 50, 16, 2
	var pool BatchPool
	run := func() {
		var workers sync.WaitGroup
		got := make([][]Dep, threads)
		fo := NewFanout(FanoutConfig{Batch: batch, Depth: depth, Pool: &pool}, func(tid uint16, s *FanStream) {
			workers.Add(1)
			go func() {
				defer workers.Done()
				for {
					b, ok := s.Next()
					if !ok {
						return
					}
					got[tid] = append(got[tid], b...)
				}
			}()
		})
		for i := 0; i < perThread; i++ {
			for tid := uint16(0); tid < threads; tid++ {
				fo.Push(tid, Dep{S: uint64(i), L: uint64(tid)})
			}
		}
		fo.Close()
		workers.Wait()
		fo.Recycle()
		for tid := range got {
			if len(got[tid]) != perThread {
				t.Fatalf("tid %d received %d deps, want %d", tid, len(got[tid]), perThread)
			}
			for i, d := range got[tid] {
				if d.S != uint64(i) || d.L != uint64(tid) {
					t.Fatalf("tid %d dep %d = %+v out of order", tid, i, d)
				}
			}
		}
	}
	backing := func() map[*Dep]bool {
		m := make(map[*Dep]bool)
		for _, b := range pool.free {
			m[&b[:1][0]] = true
		}
		return m
	}
	run()
	first := backing()
	if want := threads * (depth + 2); len(first) != want {
		t.Fatalf("pool holds %d buffers after the first fan-out, want %d", len(first), want)
	}
	for i := 0; i < 3; i++ {
		run()
		if again := backing(); len(again) != len(first) {
			t.Fatalf("pool holds %d buffers after fan-out %d, want %d", len(again), i+2, len(first))
		} else {
			for p := range again {
				if !first[p] {
					t.Fatalf("fan-out %d allocated a new batch buffer", i+2)
				}
			}
		}
	}
}
