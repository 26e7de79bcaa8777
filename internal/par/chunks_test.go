package par

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// TestForChunksBoundariesAndCoverage pins the dispatcher's determinism
// contract: the chunks are exactly [k·chunk, min((k+1)·chunk, n)) at any
// pool width, and every index is visited exactly once.
func TestForChunksBoundariesAndCoverage(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		for _, tc := range []struct{ n, chunk int }{
			{1000, 16}, {1000, 1000}, {1000, 1}, {17, 16}, {5, 256}, {256, 0}, {1000, 0}, {1, 7},
		} {
			prev := SetWorkers(w)
			var (
				mu     sync.Mutex
				chunks = map[int]int{}
			)
			counts := make([]int64, tc.n)
			ForChunks(tc.n, tc.chunk, func(lo, hi int) {
				mu.Lock()
				chunks[lo] = hi
				mu.Unlock()
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
			})
			SetWorkers(prev)
			size := tc.chunk
			if size <= 0 {
				size = 256 // the documented default
			}
			want := (tc.n + size - 1) / size
			if len(chunks) != want {
				t.Fatalf("workers=%d n=%d chunk=%d: %d chunks, want %d", w, tc.n, tc.chunk, len(chunks), want)
			}
			for k := 0; k < want; k++ {
				lo, hi := k*size, min((k+1)*size, tc.n)
				if got, ok := chunks[lo]; !ok || got != hi {
					t.Fatalf("workers=%d n=%d chunk=%d: chunk %d = [%d,%d), want [%d,%d)",
						w, tc.n, tc.chunk, k, lo, got, lo, hi)
				}
			}
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d chunk=%d: index %d visited %d times", w, tc.n, tc.chunk, i, c)
				}
			}
		}
	}
}

func TestForChunksEmptyRunsNothing(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		calls := 0
		ForChunks(0, 16, func(int, int) { calls++ })
		ForChunks(-5, 16, func(int, int) { calls++ })
		SetWorkers(prev)
		if calls != 0 {
			t.Fatalf("workers=%d: fn called %d times for empty ranges", w, calls)
		}
	}
}

func TestForChunksPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		func() {
			defer SetWorkers(prev)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", w)
				}
				if !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("workers=%d: panic value lost: %v", w, r)
				}
			}()
			ForChunks(500, 10, func(lo, hi int) {
				if lo <= 123 && 123 < hi {
					panic("boom")
				}
			})
		}()
	}
}

// TestForChunksCounters: the pool counters account the item, not the
// chunk — one call and n tasks — so chunk-size choices never move the
// curated metrics snapshot.
func TestForChunksCounters(t *testing.T) {
	prevOn := obs.SetEnabled(true)
	defer obs.SetEnabled(prevOn)
	for _, w := range []int{1, 2, 8} {
		prev := SetWorkers(w)
		calls, tasks := mForCalls.Value(), mForTasks.Value()
		ForChunks(1000, 16, func(int, int) {})
		SetWorkers(prev)
		if d := mForCalls.Value() - calls; d != 1 {
			t.Fatalf("workers=%d: par.for.calls moved by %d, want 1", w, d)
		}
		if d := mForTasks.Value() - tasks; d != 1000 {
			t.Fatalf("workers=%d: par.for.tasks moved by %d, want 1000", w, d)
		}
	}
}
