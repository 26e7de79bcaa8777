package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The host this benchmark runs on is a shared virtual machine whose speed
// drifts by up to ~30% within minutes: the hypervisor steals CPU from it,
// and the physical cores it lands on speed up and slow down with the load
// of other guests. A wall-clock figure alone therefore measures the
// neighbours as much as the program. Each run interleaves short slices of
// a fixed, benchmark-owned reference kernel with its timed work and
// reports every time-based end-to-end metric at reference host speed:
// scaled by refNominal over the reference's mean measured time. The raw
// wall-clock values stay in the report line. The kernel is part of the
// benchmark, not of the program, so a change to the program moves the
// scaled metrics exactly as much as the raw ones.

// refNominal is the reference slice's time on an unloaded host.
const refNominal = 25 * time.Millisecond

// refSink keeps the reference arithmetic from being optimised away.
var refSink []float64

// refSlice runs a fixed amount of arithmetic (sincos and multiply-adds
// over an L2-resident buffer, the mix of the estimator's kernels) on every
// CPU at once and returns its wall time. It allocates nothing per
// iteration, so it neither triggers nor waits for the garbage collector.
func refSlice() time.Duration {
	n := runtime.NumCPU()
	refSink = make([]float64, n)
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]float64, 8192)
			acc := 0.0
			for it := 0; it < 60; it++ {
				for i := range buf {
					s, c := math.Sincos(float64(i)*1e-3 + acc*1e-12)
					buf[i] = buf[i]*c + s
					acc += buf[i]
				}
			}
			refSink[g] = acc
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// hostClock accumulates reference slices taken between units of timed
// work: their wall time and the process CPU time they used.
type hostClock struct {
	total, cpu time.Duration
	n          int
}

// sample runs k reference slices and returns their wall time, which the
// caller leaves out of its timed phase.
func (h *hostClock) sample(k int) time.Duration {
	c0 := cpuTime()
	var d time.Duration
	for i := 0; i < k; i++ {
		d += refSlice()
	}
	h.cpu += cpuTime() - c0
	h.total += d
	h.n += k
	return d
}

// factor is how much slower than nominal the host ran in wall time (>1
// is slower). It scales the wall-clock metrics.
func (h *hostClock) factor() float64 {
	if h.n == 0 {
		return 1
	}
	return float64(h.total) / float64(h.n) / float64(refNominal)
}

// cpuFactor is the same ratio in CPU time, which leaves out what the
// hypervisor steals but not a slower core. It scales cpu_ms_per_unit.
func (h *hostClock) cpuFactor() float64 {
	if h.n == 0 {
		return 1
	}
	return float64(h.cpu) / float64(h.n) / float64(refNominal*time.Duration(runtime.NumCPU()))
}
