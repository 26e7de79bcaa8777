package dsp

import (
	"fmt"
	"math"
)

// FIR is a finite impulse response filter described by its tap vector.
type FIR struct {
	Taps []float64
}

// DesignLowpass designs a linear-phase lowpass FIR by the windowed-sinc
// method. cutoff is the -6 dB edge in cycles/sample (0 < cutoff < 0.5),
// numTaps must be >= 1. The window type and Kaiser beta follow Window.
func DesignLowpass(numTaps int, cutoff float64, w WindowType, beta float64) (*FIR, error) {
	if numTaps < 1 {
		return nil, fmt.Errorf("dsp: DesignLowpass: numTaps %d < 1", numTaps)
	}
	if cutoff <= 0 || cutoff >= 0.5 {
		return nil, fmt.Errorf("dsp: DesignLowpass: cutoff %g outside (0, 0.5)", cutoff)
	}
	win := Window(w, numTaps, beta)
	taps := make([]float64, numTaps)
	mid := float64(numTaps-1) / 2
	for i := range taps {
		taps[i] = 2 * cutoff * Sinc(2*cutoff*(float64(i)-mid)) * win[i]
	}
	f := &FIR{Taps: taps}
	f.normalizeDC()
	return f, nil
}

// normalizeDC scales the taps for unity gain at DC.
func (f *FIR) normalizeDC() {
	s := 0.0
	for _, t := range f.Taps {
		s += t
	}
	if s == 0 {
		return
	}
	for i := range f.Taps {
		f.Taps[i] /= s
	}
}

// Len returns the number of taps.
func (f *FIR) Len() int { return len(f.Taps) }

// GroupDelay returns the group delay in samples of the (linear-phase) filter.
func (f *FIR) GroupDelay() float64 { return float64(len(f.Taps)-1) / 2 }

// Filter convolves x with the filter and returns the "same"-length output,
// aligned so that out[n] corresponds to x[n] delayed by the group delay.
func (f *FIR) Filter(x []float64) []float64 {
	full := Convolve(x, f.Taps)
	d := (len(f.Taps) - 1) / 2
	out := make([]float64, len(x))
	copy(out, full[d:d+len(x)])
	return out
}

// Response evaluates the filter's complex frequency response at the
// normalised frequency nu (cycles/sample).
func (f *FIR) Response(nu float64) complex128 {
	var acc complex128
	for n, h := range f.Taps {
		phi := -2 * math.Pi * nu * float64(n)
		s, c := math.Sincos(phi)
		acc += complex(h*c, h*s)
	}
	return acc
}

// Decimate lowpass-filters x and keeps every factor-th sample. The filter
// must already be designed with an appropriate cutoff (< 0.5/factor). The
// result equals Filter applied to the real and imaginary parts and then
// strided, but only the kept outputs are computed: each is a direct FIR sum
// accumulated in ascending input index — the order Convolve's direct path
// uses, so where Convolve stays direct the two agree bit for bit.
func (f *FIR) Decimate(x []complex128, factor int) []complex128 {
	if factor < 1 {
		panic("dsp: Decimate factor must be >= 1")
	}
	h := f.Taps
	nh := len(h)
	d := (nh - 1) / 2
	out := make([]complex128, (len(x)+factor-1)/factor)
	for m := range out {
		// Filter's output n = m*factor is full-convolution index k = n+d:
		// sum over x[i]*h[k-i] for every i with both indices in range.
		k := m*factor + d
		lo, hi := k-nh+1, k
		if lo < 0 {
			lo = 0
		}
		if hi > len(x)-1 {
			hi = len(x) - 1
		}
		var re, im float64
		for i := lo; i <= hi; i++ {
			t := h[k-i]
			re += real(x[i]) * t
			im += imag(x[i]) * t
		}
		out[m] = complex(re, im)
	}
	return out
}
