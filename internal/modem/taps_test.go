package modem

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
)

// tapsVsAt returns the largest |Taps(f)[j] - At((j-Span+f)·Ts)| over the
// bank of p at offset f.
func tapsVsAt(p *SRRC, f float64) (worst float64, at float64) {
	var buf [2 * maxSpan]float64
	taps := buf[:2*p.Span]
	p.Taps(f, taps)
	for j, v := range taps {
		x := float64(j-p.Span) + f
		if d := math.Abs(v - p.At(x*p.Ts)); d > worst {
			worst, at = d, x
		}
	}
	return worst, at
}

// TestSRRCTapsMatchAt is the differential test of the factored tap bank
// against the per-instant SRRC.At oracle, at random offsets and in the
// neighbourhoods of the two removable singularities. Points with
// 1e-8 < ||4·a·x| - 1| < 1e-6 are not probed: there the numerator and the
// denominator of raw both vanish, so At itself keeps fewer than nine digits.
func TestSRRCTapsMatchAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, alpha := range []float64{0.22, 0.35, 0.5, 1} {
		for _, span := range []int{4, 8} {
			p, err := NewSRRC(100e-9, alpha, span)
			if err != nil {
				t.Fatal(err)
			}
			var xs []float64
			x0 := 1 / (4 * alpha)
			for _, rel := range []float64{0, 1e-9, 1e-6, 1e-5, 1e-3} {
				xs = append(xs, x0*(1+rel), x0*(1-rel), -x0*(1+rel), -x0*(1-rel))
			}
			for _, d := range []float64{0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2} {
				xs = append(xs, d, -d)
			}
			fs := []float64{0, 0.5, math.Nextafter(1, 0)}
			for _, x := range xs {
				fs = append(fs, x-math.Floor(x))
			}
			for i := 0; i < 2000; i++ {
				fs = append(fs, rng.Float64())
			}
			for _, f := range fs {
				if d, x := tapsVsAt(p, f); d > 1e-9 {
					t.Errorf("alpha %g span %d f %.17g: |Taps - At| = %.3g at x = %.17g",
						alpha, span, f, d, x)
				}
			}
		}
	}
}

// envelopePerTap is the per-tap form of ShapedEnvelope.At that the
// factored bank replaced: one SRRC.At call and two modulos per symbol. It
// is kept here as the oracle of TestShapedEnvelopeMatchesPerTap.
func envelopePerTap(s *ShapedEnvelope, t float64) complex128 {
	ts := s.Pulse.SymbolPeriod()
	span := s.Pulse.SpanSymbols()
	n := len(s.Symbols)
	if s.Cyclic {
		period := float64(n) * ts
		t = math.Mod(t, period)
		if t < 0 {
			t += period
		}
	}
	kc := int(math.Floor(t / ts))
	var acc complex128
	for k := kc - span; k <= kc+span+1; k++ {
		idx := k
		if s.Cyclic {
			idx = ((k % n) + n) % n
		} else if k < 0 || k >= n {
			continue
		}
		p := s.Pulse.At(t - float64(k)*ts)
		if p == 0 {
			continue
		}
		acc += s.Symbols[idx] * complex(p, 0)
	}
	return acc * complex(s.Gain, 0)
}

// TestShapedEnvelopeMatchesPerTap compares the envelope against the
// per-tap oracle on the paper's stimulus (QPSK, alpha 0.5, span 8), cyclic
// and as a burst, over 2e5 instants that cover negative times, several
// periods and both burst edges.
func TestShapedEnvelopeMatchesPerTap(t *testing.T) {
	const ts = 100e-9
	p, err := NewSRRC(ts, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	syms := QPSK.RandomSymbols(256, 5)
	rng := rand.New(rand.NewSource(2))
	for _, cyclic := range []bool{true, false} {
		env, err := NewShapedEnvelope(syms, p, cyclic)
		if err != nil {
			t.Fatal(err)
		}
		env.Gain = 1.7
		lo, hi := -3*256*ts, 3*256*ts
		if !cyclic {
			lo, hi = -10*ts, (256+10)*ts
		}
		const n = 100000
		var worst, sq float64
		for i := 0; i < n; i++ {
			tv := lo + (hi-lo)*rng.Float64()
			d := env.At(tv) - envelopePerTap(env, tv)
			e := math.Hypot(real(d), imag(d))
			worst = math.Max(worst, e)
			sq += e * e
		}
		rms := math.Sqrt(sq / n)
		if worst > 1e-9 || rms > 1e-12 {
			t.Errorf("cyclic=%v: max |Δ| %.3g (bound 1e-9), RMS %.3g (bound 1e-12)", cyclic, worst, rms)
		}
		t.Logf("cyclic=%v: max |Δ| %.3g, RMS %.3g over %d instants", cyclic, worst, rms, n)
	}
}

func TestShapedEnvelopeAtZeroAllocs(t *testing.T) {
	p, _ := NewSRRC(100e-9, 0.5, 8)
	env, _ := NewShapedEnvelope(QPSK.RandomSymbols(64, 1), p, true)
	tv := 123.4e-9
	if n := testing.AllocsPerRun(100, func() { tv += 1e-9; _ = env.At(tv) }); n != 0 {
		t.Errorf("ShapedEnvelope.At allocates %g times per call, want 0", n)
	}
}

func TestSRRCSpanLimit(t *testing.T) {
	if _, err := NewSRRC(1, 0.5, maxSpan); err != nil {
		t.Errorf("span %d must be accepted: %v", maxSpan, err)
	}
	if _, err := NewSRRC(1, 0.5, maxSpan+1); err == nil {
		t.Errorf("span %d must be rejected", maxSpan+1)
	}
}

// FuzzSRRCTapsVsAt checks the factored tap bank against SRRC.At for any
// roll-off, span and offset. The bound is 1e-9 plus the rounding that both
// forms lose where raw's numerator and denominator vanish together
// (|4·a·x| -> 1), a few ulps of the numerator's terms divided by the
// denominator.
func FuzzSRRCTapsVsAt(f *testing.F) {
	f.Add(0.5, 0.25, uint8(8))
	f.Add(0.22, 0.136, uint8(4))
	f.Add(1.0, 0.75, uint8(1))
	f.Add(0.35, math.Nextafter(1, 0), uint8(32))
	f.Fuzz(func(t *testing.T, alpha, off float64, span uint8) {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.IsNaN(off) || math.IsInf(off, 0) {
			t.Skip()
		}
		alpha = math.Abs(math.Mod(alpha, 1))
		if alpha < 1e-3 {
			alpha = 1
		}
		off = math.Abs(math.Mod(off, 1))
		sp := 1 + int(span)%maxSpan
		p, err := NewSRRC(1, alpha, sp)
		if err != nil {
			t.Fatal(err)
		}
		var buf [2 * maxSpan]float64
		taps := buf[:2*sp]
		p.Taps(off, taps)
		const eps = 0x1p-52
		for j, v := range taps {
			x := float64(j-sp) + off
			q := 4 * alpha * x
			den := math.Abs(math.Pi * p.peak * x * (1 - q*q))
			tol := 1e-9 + 16*eps*(1+math.Pi*math.Abs(x))*(1+math.Abs(q))/den
			if d := math.Abs(v - p.At(x)); d > tol {
				t.Fatalf("alpha %g span %d f %.17g: tap %d (x = %.17g) |Taps - At| = %.3g > %.3g",
					alpha, sp, off, j, x, d, tol)
			}
		}
	})
}

// TestAvgPowerWorkerInvariance checks that the concurrent power probes,
// which all read one SRRC's tap constants, give the same bits at any pool
// width.
func TestAvgPowerWorkerInvariance(t *testing.T) {
	p, _ := NewSRRC(100e-9, 0.5, 8)
	env, _ := NewShapedEnvelope(QPSK.RandomSymbols(128, 9), p, true)
	defer par.SetWorkers(par.SetWorkers(1))
	want := env.AvgPower(4096)
	for _, w := range []int{2, 8} {
		par.SetWorkers(w)
		if got := env.AvgPower(4096); got != want {
			t.Errorf("workers %d: AvgPower %.17g, want %.17g (1 worker)", w, got, want)
		}
	}
}
