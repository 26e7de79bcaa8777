package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestDesignLowpassResponse(t *testing.T) {
	f, err := DesignLowpass(101, 0.1, KaiserWin, KaiserBeta(60))
	if err != nil {
		t.Fatal(err)
	}
	// Unity at DC.
	if g := cabs(f.Response(0)); math.Abs(g-1) > 1e-9 {
		t.Errorf("DC gain = %g", g)
	}
	magDB := func(nu float64) float64 { return 20 * math.Log10(cabs(f.Response(nu))) }
	// Passband flat within 1 dB.
	for _, nu := range []float64{0.01, 0.05, 0.08} {
		if db := magDB(nu); db < -1 || db > 1 {
			t.Errorf("passband %g: %g dB", nu, db)
		}
	}
	// Stopband below -50 dB past the transition.
	for _, nu := range []float64{0.16, 0.2, 0.3, 0.45} {
		if db := magDB(nu); db > -50 {
			t.Errorf("stopband %g: %g dB", nu, db)
		}
	}
	// -6 dB point near the cutoff.
	if db := magDB(0.1); math.Abs(db-(-6)) > 1.5 {
		t.Errorf("cutoff attenuation %g dB, want ~ -6", db)
	}
}

func TestDesignLowpassErrors(t *testing.T) {
	if _, err := DesignLowpass(0, 0.1, Hann, 0); err == nil {
		t.Error("numTaps 0 should fail")
	}
	if _, err := DesignLowpass(11, 0.6, Hann, 0); err == nil {
		t.Error("cutoff >= 0.5 should fail")
	}
	if _, err := DesignLowpass(11, 0, Hann, 0); err == nil {
		t.Error("cutoff 0 should fail")
	}
}

func TestFIRFilterDelayAlignment(t *testing.T) {
	// A filtered sinusoid well inside the passband should come out nearly
	// unchanged (same phase) thanks to the group-delay compensation.
	f, err := DesignLowpass(101, 0.2, KaiserWin, KaiserBeta(60))
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * 0.05 * float64(i))
	}
	y := f.Filter(x)
	if len(y) != n {
		t.Fatalf("output length %d != %d", len(y), n)
	}
	// Compare away from the edges.
	worst := 0.0
	for i := 100; i < n-100; i++ {
		if d := math.Abs(y[i] - x[i]); d > worst {
			worst = d
		}
	}
	if worst > 1e-3 {
		t.Errorf("aligned passband error %g", worst)
	}
}

// TestFIRDecimateMatchesFilteredParts checks the direct decimator against
// its oracle at the envelope-grid geometry (91-tap anti-image filter, 4x
// oversampling), where Filter takes Convolve's FFT path.
func TestFIRDecimateMatchesFilteredParts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f, err := DesignLowpass(91, 0.45/4, KaiserWin, KaiserBeta(70))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	checkDecimateVsFilter(t, f, x, 4)
}

// checkDecimateVsFilter compares Decimate against its oracle: Filter on the
// real and imaginary parts, then every factor-th sample. Where Convolve
// takes its direct path the two must agree bit for bit (same products,
// same ascending accumulation order); elsewhere within 1e-12 Σ|h| max|x|.
func checkDecimateVsFilter(t *testing.T, f *FIR, x []complex128, factor int) {
	t.Helper()
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	mx := 0.0
	for i, v := range x {
		re[i], im[i] = real(v), imag(v)
		mx = math.Max(mx, math.Max(math.Abs(re[i]), math.Abs(im[i])))
	}
	fr, fi := f.Filter(re), f.Filter(im)
	got := f.Decimate(x, factor)
	if want := (len(x) + factor - 1) / factor; len(got) != want {
		t.Fatalf("len %d, want %d (n=%d factor=%d)", len(got), want, len(x), factor)
	}
	tol := 0.0
	if len(x)*f.Len() > 4096 {
		sh := 0.0
		for _, h := range f.Taps {
			sh += math.Abs(h)
		}
		tol = 1e-12 * sh * mx
	}
	for m, v := range got {
		wr, wi := fr[m*factor], fi[m*factor]
		if tol == 0 {
			if math.Float64bits(real(v)) != math.Float64bits(wr) || math.Float64bits(imag(v)) != math.Float64bits(wi) {
				t.Fatalf("output %d: %v, want %v bit for bit (n=%d taps=%d factor=%d)",
					m, v, complex(wr, wi), len(x), f.Len(), factor)
			}
			continue
		}
		if d := math.Max(math.Abs(real(v)-wr), math.Abs(imag(v)-wi)); d > tol {
			t.Fatalf("output %d: %v, want %v (diff %g > %g, n=%d taps=%d factor=%d)",
				m, v, complex(wr, wi), d, tol, len(x), f.Len(), factor)
		}
	}
}

func TestFIRDecimate(t *testing.T) {
	f, _ := DesignLowpass(63, 0.1, KaiserWin, KaiserBeta(60))
	x := make([]complex128, 400)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*0.02*float64(i)), 0)
	}
	y := f.Decimate(x, 4)
	if len(y) != 100 {
		t.Fatalf("decimated length %d, want 100", len(y))
	}
	defer func() {
		if recover() == nil {
			t.Error("factor 0 should panic")
		}
	}()
	f.Decimate(x, 0)
}

func TestFIRGroupDelay(t *testing.T) {
	f := &FIR{Taps: make([]float64, 61)}
	if gd := f.GroupDelay(); gd != 30 {
		t.Errorf("group delay %g, want 30", gd)
	}
	if f.Len() != 61 {
		t.Errorf("Len %d", f.Len())
	}
}
