package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersBounds(t *testing.T) {
	if Workers() < 1 {
		t.Fatalf("Workers() = %d, want >= 1", Workers())
	}
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if Workers() != 3 {
		t.Fatalf("override not honoured: Workers() = %d", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("default restore broken: Workers() = %d", Workers())
	}
	SetWorkers(1 << 30)
	if Workers() != maxWorkers {
		t.Fatalf("cap not applied: Workers() = %d", Workers())
	}
}

func TestMapDeterministicOrdering(t *testing.T) {
	for _, w := range []int{1, 2, 7} {
		prev := SetWorkers(w)
		got, err := MapErr(100, func(i int) (int, error) { return i * i, nil })
		SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestForPoolSizeOneRunsInline(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	// Inline execution must preserve iteration order exactly.
	var order []int
	For(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("inline order broken: %v", order)
		}
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	prev := SetWorkers(5)
	defer SetWorkers(prev)
	const n = 1000
	var counts [n]int64
	For(n, func(i int) { atomic.AddInt64(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		prev := SetWorkers(w)
		func() {
			defer SetWorkers(prev)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", w)
				}
				if w > 1 && !strings.Contains(fmt.Sprint(r), "boom") {
					t.Fatalf("workers=%d: panic value lost: %v", w, r)
				}
			}()
			For(50, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForErrReturnsLowestIndexError(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	err := ForErr(100, func(i int) error {
		if i == 80 || i == 17 {
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail at 17" {
		t.Fatalf("got %v, want the index-17 error", err)
	}
	if err := ForErr(10, func(int) error { return nil }); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMapErr(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	want := errors.New("nope")
	if _, err := MapErr(20, func(i int) (int, error) {
		if i == 5 {
			return 0, want
		}
		return i, nil
	}); !errors.Is(err, want) {
		t.Fatalf("got %v", err)
	}
	out, err := MapErr(20, func(i int) (int, error) { return 2 * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 2*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	calls := 0
	For(0, func(int) { calls++ })
	For(-3, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("fn called %d times for empty ranges", calls)
	}
}
