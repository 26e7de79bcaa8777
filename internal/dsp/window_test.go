package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBesselI0AgainstSeries(t *testing.T) {
	for _, x := range []float64{0, 0.1, 1, 3, 3.75, 5, 10, 20, 50} {
		fast := BesselI0(x)
		ref := BesselI0Series(x)
		if rel := math.Abs(fast-ref) / ref; rel > 3e-7 {
			t.Errorf("I0(%g): fast %g vs series %g (rel %g)", x, fast, ref, rel)
		}
	}
}

func TestBesselI0KnownValues(t *testing.T) {
	// Abramowitz & Stegun table values.
	cases := []struct{ x, want float64 }{
		{0, 1},
		{1, 1.2660658777520084},
		{2, 2.2795853023360673},
		{5, 27.239871823604442},
	}
	for _, c := range cases {
		if got := BesselI0(c.x); math.Abs(got-c.want)/c.want > 1e-6 {
			t.Errorf("I0(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestBesselI0EvenProperty(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 30)
		return BesselI0(x) == BesselI0(-x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWindowsSymmetricAndBounded(t *testing.T) {
	for _, wt := range []WindowType{Rectangular, Hann, Hamming, Blackman, KaiserWin} {
		n := 61
		w := Window(wt, n, 7.0)
		if len(w) != n {
			t.Fatalf("%v: wrong length", wt)
		}
		for i := 0; i < n/2; i++ {
			if math.Abs(w[i]-w[n-1-i]) > 1e-12 {
				t.Errorf("%v: asymmetric at %d: %g vs %g", wt, i, w[i], w[n-1-i])
			}
		}
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Errorf("%v[%d] = %g outside [0,1]", wt, i, v)
			}
		}
		// Peak at centre for odd-length windows.
		if w[n/2] < w[0]-1e-12 {
			t.Errorf("%v: centre %g below edge %g", wt, w[n/2], w[0])
		}
	}
}

func TestWindowSinglePoint(t *testing.T) {
	for _, wt := range []WindowType{Rectangular, Hann, Hamming, Blackman, KaiserWin} {
		w := Window(wt, 1, 5)
		if len(w) != 1 || w[0] != 1 {
			t.Errorf("%v: single-point window = %v, want [1]", wt, w)
		}
	}
}

func TestKaiserBetaZeroIsRectangular(t *testing.T) {
	w := Kaiser(11, 0)
	for i, v := range w {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("Kaiser(beta=0)[%d] = %g, want 1", i, v)
		}
	}
}

func TestKaiserSidelobesImproveWithBeta(t *testing.T) {
	// Higher beta must give lower peak sidelobes in the window's spectrum.
	sidelobe := func(beta float64) float64 {
		n := 63
		w := Kaiser(n, beta)
		pad := make([]float64, 4096)
		copy(pad, w)
		spec := RealFFT(pad)
		main := cabs(spec[0])
		// Find peak beyond the main lobe (skip first ~ mainlobe bins).
		skip := 4096 / n * 4
		peak := 0.0
		for k := skip; k < 2048; k++ {
			if a := cabs(spec[k]); a > peak {
				peak = a
			}
		}
		return 20 * math.Log10(peak/main)
	}
	s2 := sidelobe(2)
	s8 := sidelobe(8)
	if s8 >= s2 {
		t.Errorf("sidelobe(beta=8)=%g dB not below sidelobe(beta=2)=%g dB", s8, s2)
	}
	if s8 > -55 {
		t.Errorf("Kaiser beta=8 sidelobes %g dB, want < -55 dB", s8)
	}
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

func TestKaiserBetaFormulaRegions(t *testing.T) {
	if KaiserBeta(10) != 0 {
		t.Error("beta should be 0 below 21 dB")
	}
	if b := KaiserBeta(60); math.Abs(b-0.1102*(60-8.7)) > 1e-12 {
		t.Errorf("beta(60) = %g", b)
	}
	if b := KaiserBeta(30); b <= 0 || b > 5 {
		t.Errorf("beta(30) = %g out of plausible range", b)
	}
}

func TestKaiserOrderMonotonic(t *testing.T) {
	if KaiserOrder(60, 0.01) <= KaiserOrder(60, 0.05) {
		t.Error("narrower transition must need a higher order")
	}
	if KaiserOrder(80, 0.01) <= KaiserOrder(40, 0.01) {
		t.Error("more attenuation must need a higher order")
	}
	defer func() {
		if recover() == nil {
			t.Error("KaiserOrder with zero width should panic")
		}
	}()
	KaiserOrder(60, 0)
}

func TestCoherentGainAndNoiseBandwidth(t *testing.T) {
	rect := Window(Rectangular, 64, 0)
	if g := CoherentGain(rect); math.Abs(g-1) > 1e-12 {
		t.Errorf("rect coherent gain = %g", g)
	}
	if nb := NoiseBandwidth(rect); math.Abs(nb-1) > 1e-12 {
		t.Errorf("rect noise bandwidth = %g", nb)
	}
	hann := Window(Hann, 4096, 0)
	if nb := NoiseBandwidth(hann); math.Abs(nb-1.5) > 0.01 {
		t.Errorf("hann noise bandwidth = %g, want ~1.5", nb)
	}
	if CoherentGain(nil) != 0 || NoiseBandwidth(nil) != 0 {
		t.Error("empty window edge cases")
	}
}

func TestWindowTypeString(t *testing.T) {
	if Rectangular.String() != "rectangular" || KaiserWin.String() != "kaiser" {
		t.Error("WindowType.String mismatch")
	}
	if WindowType(99).String() == "" {
		t.Error("unknown window type should still stringify")
	}
}

func TestSincValues(t *testing.T) {
	if Sinc(0) != 1 {
		t.Error("Sinc(0) != 1")
	}
	for _, k := range []float64{1, 2, 3, -4} {
		if math.Abs(Sinc(k)) > 1e-12 {
			t.Errorf("Sinc(%g) = %g, want 0", k, Sinc(k))
		}
	}
	if math.Abs(Sinc(0.5)-2/math.Pi) > 1e-12 {
		t.Errorf("Sinc(0.5) = %g", Sinc(0.5))
	}
	// Taylor branch continuity near zero.
	if math.Abs(Sinc(1e-7)-Sinc(1.0000001e-6)) > 1e-9 {
		t.Error("Sinc discontinuous near 0")
	}
}

func TestDiffCosOverTLimit(t *testing.T) {
	a, b := 2*math.Pi*1e9, 2*math.Pi*0.7e9
	p := 0.4
	want := -a*math.Sin(p) + b*math.Sin(p)
	got := DiffCosOverT(a, p, b, p, 0)
	if math.Abs(got-want)/math.Abs(want) > 1e-12 {
		t.Errorf("limit = %g, want %g", got, want)
	}
	// Continuity across the threshold: compare each branch against the
	// second-order expansion valid for tiny t. The function's own slope is
	// ~(b^2-a^2)cos(p)/2, so evaluate both sides at their own t.
	for _, tv := range []float64{0.9e-13, 1.1e-13, 2e-13} {
		expand := (b-a)*math.Sin(p) + tv*0.5*(b*b-a*a)*math.Cos(p)
		got := DiffCosOverT(a, p, b, p, tv)
		if math.Abs(got-expand)/math.Abs(expand) > 1e-6 {
			t.Errorf("t=%g: %g deviates from expansion %g", tv, got, expand)
		}
	}
}

// windowedPhasor reads the complex amplitude p of a real tone at normalised
// frequency nu, x[n] ~ Re{p·e^{i2πνn}}, from the windowed DTFT normalised
// by the window's coherent gain.
func windowedPhasor(x []float64, nu float64, w []float64) complex128 {
	xw := make([]float64, len(x))
	gain := 0.0
	for i, v := range x {
		xw[i] = v * w[i]
		gain += w[i]
	}
	return DTFT(xw, nu) * complex(2/gain, 0)
}

func TestFlattopAmplitudeAccuracy(t *testing.T) {
	// A flat-top-windowed DFT reads tone amplitudes accurately even with
	// worst-case bin offset (half-bin).
	n := 4096
	w := Window(Flattop, n, 0)
	if len(w) != n {
		t.Fatal("length")
	}
	amp := 1.23
	nu := (100.5) / float64(n) // worst-case scalloping position
	x := make([]float64, n)
	for i := range x {
		x[i] = amp * math.Cos(2*math.Pi*nu*float64(i))
	}
	p := windowedPhasor(x, nu, w)
	if math.Abs(cabs(p)-amp)/amp > 0.001 {
		t.Errorf("flattop amplitude %g, want %g", cabs(p), amp)
	}
	// Compare against Hann at the same offset but probing the nearest BIN
	// frequency (scalloping): Hann loses >1 dB, flat-top doesn't.
	binNu := 100.0 / float64(n)
	hannP := cabs(windowedPhasor(x, binNu, Window(Hann, n, 0)))
	flatP := cabs(windowedPhasor(x, binNu, w))
	if flatP < hannP {
		t.Errorf("flattop (%g) should out-read hann (%g) off-bin", flatP, hannP)
	}
	if Flattop.String() != "flattop" {
		t.Error("name")
	}
}
