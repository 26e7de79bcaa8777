package rf

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/sig"
)

func TestMemoryPolyPAValidation(t *testing.T) {
	if _, err := NewMemoryPolyPA(nil, 1e-9); err == nil {
		t.Error("no taps must fail")
	}
	if _, err := NewMemoryPolyPA([][3]complex128{{1}, {0.1}}, 0); err == nil {
		t.Error("multi-tap with tau 0 must fail")
	}
	p, err := NewMemoryPolyPA([][3]complex128{{1}}, 0)
	if err != nil || len(p.Taps) != 1 {
		t.Error("single-tap model")
	}
	if p.Describe() == "" {
		t.Error("describe")
	}
}

func TestMemoryPolyMemorylessMatchesPolyPA(t *testing.T) {
	coef := [3]complex128{complex(1, 0.1), complex(-0.05, 0.01), complex(0.001, 0)}
	mp, _ := NewMemoryPolyPA([][3]complex128{coef}, 0)
	ref := &PolyPA{A1: coef[0], A3: coef[1], A5: coef[2]}
	env := &sig.ComplexTone{Amp: 0.8, Freq: 3e6, Phase: 0.4}
	out := mp.ApplyEnv(env)
	for _, tv := range []float64{0, 1.7e-8, 3.3e-7} {
		want := ref.Apply(env.At(tv))
		if d := cmplx.Abs(out.At(tv) - want); d > 1e-12 {
			t.Errorf("t=%g: memoryless mismatch %g", tv, d)
		}
	}
}

func TestMemoryPolyPAMemoryChangesOutput(t *testing.T) {
	// With a second tap the output at time t depends on the past.
	mp, _ := NewMemoryPolyPA([][3]complex128{
		{1, complex(-0.05, 0)},
		{complex(0.2, 0), complex(-0.01, 0)},
	}, 25e-9)
	ramp := sig.EnvelopeFunc(func(t float64) complex128 {
		if t < 0 {
			return 0
		}
		return complex(t*1e7, 0)
	})
	out := mp.ApplyEnv(ramp)
	// At t just after 0, the delayed tap still sees zero; later it doesn't.
	early := out.At(1e-9)
	if cmplx.Abs(early-complex(1e-2, 0)*complex(1, 0)) > 1e-3 {
		// x(1ns) = 0.01; delayed tap sees x(-24ns) = 0.
		t.Errorf("early output %v", early)
	}
	late := out.At(100e-9)
	direct := complex(1e-6*1e7, 0)
	if cmplx.Abs(late-direct) < 0.1*cmplx.Abs(direct) {
		t.Error("memory tap contribution not visible")
	}
}

func TestReceiverValidationAndDemod(t *testing.T) {
	if _, err := NewReceiver(RxConfig{}); err == nil {
		t.Error("Fc=0 must fail")
	}
	if _, err := NewReceiver(RxConfig{Fc: 1e9, NoiseRMS: -1}); err == nil {
		t.Error("negative noise must fail")
	}
	rx, err := NewReceiver(RxConfig{Fc: 1e9, Gain: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A clean tone at fc + fb comes back as a complex tone at fb with
	// twice the amplitude (gain 2).
	in := &sig.Passband{Env: &sig.ComplexTone{Amp: 0.5, Freq: 3e6}, Fc: 1e9}
	bb, err := rx.SampleBaseband(in, 40e6, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	// Tone power at +3 MHz.
	var acc complex128
	for i, v := range bb {
		ph := -2 * math.Pi * 3e6 * float64(i) / 40e6
		s, c := math.Sincos(ph)
		acc += v * complex(c, s)
	}
	acc /= complex(float64(len(bb)), 0)
	if math.Abs(cmplx.Abs(acc)-1.0) > 0.05 {
		t.Errorf("recovered tone amplitude %g, want ~1.0", cmplx.Abs(acc))
	}
	// Sampling validation.
	if _, err := rx.SampleBaseband(in, 0, 0, 512); err == nil {
		t.Error("fs=0 must fail")
	}
	if _, err := rx.SampleBaseband(in, 40e6, 0, 4); err == nil {
		t.Error("too few samples must fail")
	}
}

func TestReceiverNoiseAndIQ(t *testing.T) {
	rx, _ := NewReceiver(RxConfig{Fc: 1e9, NoiseRMS: 0.1, Seed: 3})
	in := sig.SignalFunc(func(float64) float64 { return 0 })
	bb, err := rx.SampleBaseband(in, 40e6, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	var p float64
	for _, v := range bb {
		p += real(v)*real(v) + imag(v)*imag(v)
	}
	p = math.Sqrt(p / float64(2*len(bb)))
	if math.Abs(p-0.1) > 0.02 {
		t.Errorf("noise rms %g, want 0.1", p)
	}
	// Rx IQ imbalance produces an image.
	rxIQ, _ := NewReceiver(RxConfig{Fc: 1e9, IQ: FromImbalanceDB(1, 6, 0)})
	tone := &sig.Passband{Env: &sig.ComplexTone{Amp: 1, Freq: 4e6}, Fc: 1e9}
	bb2, err := rxIQ.SampleBaseband(tone, 40e6, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(f float64) float64 {
		var acc complex128
		for i, v := range bb2 {
			ph := -2 * math.Pi * f * float64(i) / 40e6
			s, c := math.Sincos(ph)
			acc += v * complex(c, s)
		}
		return cmplx.Abs(acc) / float64(len(bb2))
	}
	irr := 20 * math.Log10(probe(4e6)/probe(-4e6))
	want := FromImbalanceDB(1, 6, 0).ImageRejectionDB()
	if math.Abs(irr-want) > 1.5 {
		t.Errorf("Rx IRR %g dB vs analytic %g", irr, want)
	}
}
