package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"repro/internal/sig"
)

func TestLinearPA(t *testing.T) {
	p := &LinearPA{Gain: 2i}
	if p.Apply(complex(1, 1)) != complex(-2, 2) {
		t.Error("linear gain")
	}
	if p.Describe() == "" {
		t.Error("describe")
	}
}

func TestRappPASmallSignalAndSaturation(t *testing.T) {
	p, err := NewRappPA(10, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Small signal: gain ~ 10.
	in := complex(1e-4, 0)
	if g := cmplx.Abs(p.Apply(in)) / cmplx.Abs(in); math.Abs(g-10) > 1e-3 {
		t.Errorf("small-signal gain %g", g)
	}
	// Deep saturation: output clamps to Vsat.
	if out := cmplx.Abs(p.Apply(complex(100, 0))); math.Abs(out-1) > 1e-2 {
		t.Errorf("saturated output %g, want ~1", out)
	}
	// Monotone non-decreasing output amplitude.
	prev := -1.0
	for r := 0.001; r < 10; r *= 1.3 {
		out := cmplx.Abs(p.Apply(complex(r, 0)))
		if out < prev-1e-12 {
			t.Errorf("non-monotonic at %g", r)
		}
		prev = out
	}
	// Phase preserved (pure AM/AM).
	v := p.Apply(cmplx.Exp(complex(0, 1.1)) * 3)
	if d := math.Abs(math.Atan2(imag(v), real(v)) - 1.1); d > 1e-12 {
		t.Errorf("Rapp altered phase by %g", d)
	}
	if p.Apply(0) != 0 {
		t.Error("zero in, zero out")
	}
}

func TestRappPAValidation(t *testing.T) {
	for _, bad := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}} {
		if _, err := NewRappPA(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewRappPA%v should fail", bad)
		}
	}
}

func TestSalehPADefaultsAndAMPM(t *testing.T) {
	p := NewSalehPA(0, 0, 0, 0)
	if p.AlphaA != 2.1587 {
		t.Error("canonical defaults not applied")
	}
	// AM/PM: phase rotation grows with amplitude.
	phi := func(r float64) float64 {
		v := p.Apply(complex(r, 0))
		return math.Atan2(imag(v), real(v))
	}
	if !(phi(0.9) > phi(0.3) && phi(0.3) > phi(0.05)) {
		t.Errorf("AM/PM not increasing: %g %g %g", phi(0.05), phi(0.3), phi(0.9))
	}
	// AM/AM peaks at r = 1/sqrt(betaA) then compresses.
	rPeak := 1 / math.Sqrt(p.BetaA)
	aPeak := cmplx.Abs(p.Apply(complex(rPeak, 0)))
	if cmplx.Abs(p.Apply(complex(3*rPeak, 0))) >= aPeak {
		t.Error("Saleh does not compress past the peak")
	}
	if p.Apply(0) != 0 {
		t.Error("zero in, zero out")
	}
	custom := NewSalehPA(1, 2, 3, 4)
	if custom.BetaP != 4 {
		t.Error("custom params")
	}
	if p.Describe() == "" || custom.Describe() == "" {
		t.Error("describe")
	}
}

func TestPolyPAThirdOrder(t *testing.T) {
	// Pure third-order: two-tone input should generate IM3 — verified here
	// via the amplitude dependence y(r) = a1 r + a3 r^3.
	p := &PolyPA{A1: 1, A3: complex(-0.1, 0)}
	for _, r := range []float64{0.1, 0.5, 1} {
		want := r - 0.1*r*r*r
		if got := real(p.Apply(complex(r, 0))); math.Abs(got-want) > 1e-12 {
			t.Errorf("r=%g: %g, want %g", r, got, want)
		}
	}
	if p.Describe() == "" {
		t.Error("describe")
	}
}

func TestApplyPAOnEnvelope(t *testing.T) {
	p, _ := NewRappPA(2, 1, 2)
	env := sig.EnvelopeFunc(func(t float64) complex128 { return complex(t, 0) })
	out := ApplyPA(p, env)
	if out.At(0.1) != p.Apply(complex(0.1, 0)) {
		t.Error("envelope lift mismatch")
	}
}

func TestRappOutputNeverExceedsVsatProperty(t *testing.T) {
	p, _ := NewRappPA(5, 0.7, 1.5)
	f := func(re, im float64) bool {
		if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
			return true
		}
		out := cmplx.Abs(p.Apply(complex(re, im)))
		return out <= 0.7*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
