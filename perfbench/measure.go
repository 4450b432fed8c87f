package main

import (
	"context"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"lcrs/internal/edge"
	"lcrs/internal/webclient"
)

// record is one recognition as the camera loop saw it.
type record struct {
	frame    int32
	round    int32
	start    time.Duration // since the window opened
	lat      time.Duration // wall time of Recognize
	pred     int
	binPred  int
	exited   bool
	cacheHit bool
	traced   bool
	err      error
	stages   webclient.StageTimes
	reqID    string
}

// window is everything one measured window produced.
type window struct {
	elapsed   time.Duration
	recs      [][]record // per client
	mallocs   uint64
	allocated uint64
	heapPeak  uint64
	// base and end are the edge's counters at the window's start and end;
	// roundStats[r] is taken once every client finished round r (barrier
	// workloads only).
	base       edge.ModelStats
	roundStats []edge.ModelStats
	end        edge.ModelStats
	// tracedTime/untracedTime split the window between the traced and
	// untraced slices of a trace run.
	tracedTime, untracedTime time.Duration
}

// barrier holds clients at the end of each round until every client that
// is still running has finished it; the last to arrive snapshots the
// edge's counters for the round.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	active  int
	waiting int
	gen     int
	left    bool // a client stopped mid-round: no later round is complete
	done    func()
}

func newBarrier(n int, done func()) *barrier {
	b := &barrier{active: n, done: done}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.waiting++
	if b.waiting == b.active {
		if !b.left {
			b.done()
		}
		b.release()
		return
	}
	for g := b.gen; g == b.gen; {
		b.cond.Wait()
	}
}

// leave removes a client that stopped mid-round; clients already waiting
// are released without a round snapshot, since the round is incomplete.
func (b *barrier) leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.active--
	b.left = true
	if b.waiting > 0 && b.waiting == b.active {
		b.release()
	}
}

func (b *barrier) release() {
	b.waiting = 0
	b.gen++
	b.cond.Broadcast()
}

// warmUp replays each client's warm-up frames in the closed loop for d
// (at least one pass), so connections, scratch buffers, the heap's pages
// and lazy set-up are in place before the window opens.
func warmUp(w *workload, s *session, d time.Duration) [][]record {
	recs := make([][]record, w.clients)
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
				for _, id := range w.warm[c] {
					res, err := s.clients[c].Recognize(context.Background(), w.frames[id])
					recs[c] = append(recs[c], record{frame: id, round: -1, pred: res.Pred,
						binPred: res.BinaryPred, exited: res.Exited, cacheHit: res.CacheHit, err: err})
				}
			}
		}(c)
	}
	wg.Wait()
	return recs
}

// measure runs the closed-loop window: every client recognizes its frames
// one after another until d has passed. With sliced set, tracing is on in
// every other one-second slice, so the traced and untraced throughputs
// come from interleaved time and share the machine's drift.
func measure(w *workload, s *session, tr *tracer, d time.Duration, sliced bool) *window {
	win := &window{recs: make([][]record, w.clients)}
	for c := range win.recs {
		win.recs[c] = make([]record, 0, 1<<14)
	}
	runtime.GC()
	win.base = s.stats()
	var b *barrier
	if w.barrier {
		b = newBarrier(w.clients, func() { win.roundStats = append(win.roundStats, s.stats()) })
	}

	stopHeap := make(chan struct{})
	heapDone := make(chan uint64)
	go sampleHeap(stopHeap, heapDone)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	tr.base = start
	tr.bytes.Store(0)

	stopSlices := make(chan struct{})
	slicesDone := make(chan [2]time.Duration)
	go func() {
		var times [2]time.Duration // [untraced, traced]
		last := start
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				if sliced {
					on := tr.on.Load()
					times[b2i(on)] += now.Sub(last)
					last = now
					tr.on.Store(!on)
				}
			case <-stopSlices:
				times[b2i(tr.on.Load())] += time.Since(last)
				tr.on.Store(false)
				slicesDone <- times
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := s.clients[c]
			ctx := context.Background()
			for round := 0; ; round++ {
				for _, id := range w.schedule(c, round) {
					t0 := time.Now()
					if !t0.Before(deadline) {
						if b != nil {
							b.leave()
						}
						return
					}
					traced := tr.on.Load()
					res, err := cl.Recognize(ctx, w.frames[id])
					lat := time.Since(t0)
					win.recs[c] = append(win.recs[c], record{frame: id, round: int32(round),
						start: t0.Sub(start), lat: lat, pred: res.Pred, binPred: res.BinaryPred,
						exited: res.Exited, cacheHit: res.CacheHit, traced: traced, err: err,
						stages: res.Stages, reqID: res.RequestID})
				}
				if b != nil {
					b.wait()
				}
			}
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	close(stopSlices)
	times := <-slicesDone
	win.untracedTime, win.tracedTime = times[0], times[1]
	close(stopHeap)
	win.heapPeak = <-heapDone
	win.end = s.stats()
	win.mallocs = after.Mallocs - before.Mallocs
	win.allocated = after.TotalAlloc - before.TotalAlloc
	return win
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

// sampleHeap reports the largest live heap the collector marked between
// its start and stop, sampled every 2 ms without stopping the world. The
// live heap, not the heap's size, is the figure: how far the heap grows
// past it before a cycle ends follows the collector's pacing, which
// varies from run to run.
func sampleHeap(stop <-chan struct{}, done chan<- uint64) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	read()
	for {
		select {
		case <-tick.C:
			read()
		case <-stop:
			read()
			done <- peak
			return
		}
	}
}
