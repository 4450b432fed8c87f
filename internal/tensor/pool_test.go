package tensor

import (
	"sync/atomic"
	"testing"
)

// Every index in [0, n) must be visited exactly once, for chunk counts
// below, equal to and above n.
func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		prev := SetMaxWorkers(workers)
		for _, n := range []int{0, 1, 2, 5, 63, 64, 65, 1000} {
			counts := make([]int32, n)
			ParallelFor(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, c)
				}
			}
		}
		SetMaxWorkers(prev)
	}
}

// Nested ParallelFor calls must complete even when every pool worker is
// already busy — the inline fallback guarantees progress.
func TestParallelForNestedNoDeadlock(t *testing.T) {
	prev := SetMaxWorkers(8)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	ParallelFor(16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(16, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if got := total.Load(); got != 16*16 {
		t.Fatalf("nested ParallelFor covered %d elements, want %d", got, 16*16)
	}
}

// Chunked execution must write the same bytes as serial execution when
// chunks own disjoint ranges.
func TestParallelForDisjointWritesDeterministic(t *testing.T) {
	const n = 257
	fill := func(workers int) []float64 {
		prev := SetMaxWorkers(workers)
		defer SetMaxWorkers(prev)
		out := make([]float64, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				// Accumulate in a fixed per-element order so the result is
				// chunking-independent, like the conv kernels do.
				var s float64
				for j := 0; j < 37; j++ {
					s += float64(i*j) * 1e-3
				}
				out[i] = s
			}
		})
		return out
	}
	serial := fill(1)
	for _, workers := range []int{2, 5, 32} {
		got := fill(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: element %d differs: %v vs %v", workers, i, got[i], serial[i])
			}
		}
	}
}

// ParallelFor with a kept body must not allocate, serial or chunked: the
// zero-alloc forwards of the serving replicas and the browser client rely
// on it on multi-core hosts.
func TestParallelForZeroAllocs(t *testing.T) {
	if raceDetectorOn {
		t.Skip("the race runtime drops sync.Pool items; budget only meaningful without -race")
	}
	var sum atomic.Int64
	body := func(lo, hi int) { sum.Add(int64(hi - lo)) }
	for _, workers := range []int{1, 4} {
		prev := SetMaxWorkers(workers)
		ParallelFor(64, body) // start the pool, fill the WaitGroup cache
		avg := testing.AllocsPerRun(100, func() { ParallelFor(64, body) })
		SetMaxWorkers(prev)
		if avg != 0 {
			t.Fatalf("workers=%d: ParallelFor allocates %.1f objects/call, want 0", workers, avg)
		}
	}
	// Per worker setting: one warm call, AllocsPerRun's own warm-up and
	// its 100 measured runs.
	if got, want := sum.Load(), int64(2*64*102); got != want {
		t.Fatalf("covered %d indices, want %d", got, want)
	}
}
