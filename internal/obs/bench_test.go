package obs

import (
	"testing"

	"repro/internal/obs/trace"
)

// The disabled benchmarks are the package's contract with the LMS hot
// loop: a disabled instrument must cost one atomic load and zero
// allocations, so leaving the instrumentation compiled into the hot path
// is free. CI runs BenchmarkObsDisabled* as a smoke check.

func BenchmarkObsDisabledCounter(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	c := &Counter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsDisabledHistogram(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	h := newHistogram(LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

// BenchmarkObsDisabledStage is a pipeline stage with metrics off and no
// trace recording: two atomic loads, no clock read, 0 allocs.
func BenchmarkObsDisabledStage(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	st := NewStage("bench.stage", "bench.stage.seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := st.Start(trace.Root)
		sp.End()
	}
}

// BenchmarkWindowDisabled holds the rolling-window histogram to the same
// contract: disabled, Observe is one atomic load and must stay 0 allocs.
func BenchmarkWindowDisabled(b *testing.B) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	w := NewWindow(LatencyBuckets, 1e9, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(1e-4)
	}
}

func BenchmarkWindowEnabled(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	w := NewWindow(LatencyBuckets, 1e9, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Observe(1e-4)
	}
}

func BenchmarkObsEnabledCounter(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	c := &Counter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsEnabledHistogram(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	h := newHistogram(LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-4)
	}
}

func BenchmarkObsEnabledStage(b *testing.B) {
	prev := SetEnabled(true)
	defer SetEnabled(prev)
	st := NewStage("bench.stage", "bench.stage.seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := st.Start(trace.Root)
		sp.End()
	}
}
