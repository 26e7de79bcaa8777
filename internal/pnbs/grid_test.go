package pnbs

import (
	"math"
	"math/cmplx"
	"testing"
)

// envelopeOracle is the measure-stage envelope evaluated through the
// per-instant At path: 2·At(t)·e^{−i2πf_c t}, with t = t0 + i/fs exactly as
// EnvelopeGridInto forms it (fs = over·B).
func envelopeOracle(r *Reconstructor, fc, t0, fs float64, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		t := t0 + float64(i)/fs
		v := r.At(t)
		s, c := math.Sincos(2 * math.Pi * fc * t)
		out[i] = complex(2*v*c, -2*v*s)
	}
	return out
}

// clampedAt reports whether grid instant t has its tap span clamped at the
// capture edges (the instants the table path hands back to At).
func clampedAt(r *Reconstructor, t float64) bool {
	h := r.opt.HalfTaps
	nLo := int(math.Round((t-r.t0)/r.tStep)) - h
	return nLo < 0 || nLo+2*h+1 > len(r.ch0)
}

func gridFixture(t *testing.T, d float64) (*Reconstructor, []float64, []float64) {
	t.Helper()
	band := paperBand()
	ch0, ch1 := toneCapture(band, d, 300)
	r, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, ch0, ch1
}

// TestEnvelopeGridMatchesAtOracle: on the oversampled grid the fused
// per-phase tables agree with the At oracle to reassociated rounding; on
// instants whose tap span is clamped the kernel falls back to At and must
// match it exactly; an oversampling factor below 1 is rejected.
func TestEnvelopeGridMatchesAtOracle(t *testing.T) {
	r, _, _ := gridFixture(t, 180e-12)
	fc := r.kern.band.Fc()

	t.Run("commensurate", func(t *testing.T) {
		lo, hi := r.ValidRange()
		fs := 4 * r.kern.band.B
		n := int((hi - lo) * fs)
		got := make([]complex128, n)
		r.EnvelopeGridInto(fc, lo, 4, got)
		if g := r.grid.Load(); g == nil || g.over != 4 || g.t0 != lo {
			t.Fatalf("4x grid did not build cached tables: %+v", g)
		}
		want := envelopeOracle(r, fc, lo, fs, n)
		peak, worst, tabled := 0.0, 0.0, 0
		for i := range got {
			tv := lo + float64(i)/fs
			if clampedAt(r, tv) {
				t.Fatalf("i=%d: instant inside the valid range has a clamped span", i)
			}
			peak = math.Max(peak, math.Abs(r.At(tv)))
			worst = math.Max(worst, cmplx.Abs(got[i]-want[i]))
			if got[i] != want[i] {
				tabled++
			}
		}
		if worst > 1e-10*peak {
			t.Fatalf("table path off the At oracle by %g (peak |At| %g)", worst, peak)
		}
		// Bit-equality everywhere would mean the tables were never used.
		if tabled == 0 {
			t.Fatal("every instant matched At bit for bit: table path not exercised")
		}
	})

	t.Run("clamped edges", func(t *testing.T) {
		fs := 4 * r.kern.band.B
		t0 := r.t0 - 10*r.tStep
		n := int(float64(len(r.ch0)+20) * r.tStep * fs)
		got := make([]complex128, n)
		r.EnvelopeGridInto(fc, t0, 4, got)
		want := envelopeOracle(r, fc, t0, fs, n)
		clamped := 0
		for i := range got {
			tv := t0 + float64(i)/fs
			if !clampedAt(r, tv) {
				continue
			}
			clamped++
			if got[i] != want[i] {
				t.Fatalf("clamped instant i=%d t=%g: %v != At oracle %v", i, tv, got[i], want[i])
			}
		}
		if clamped == 0 {
			t.Fatal("grid has no clamped instants")
		}
	})

	t.Run("rejects over below 1", func(t *testing.T) {
		lo, _ := r.ValidRange()
		for _, over := range []int{0, -4} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("over=%d: no panic", over)
					}
				}()
				r.EnvelopeGridInto(fc, lo, over, make([]complex128, 8))
			}()
		}
	})
}

// TestEnvelopeGridRebuildsAfterRetune: the grid tables fold the delay in,
// so a Retune must invalidate them, and the rebuilt tables must evaluate
// bit for bit like a reconstructor freshly built at the new delay.
func TestEnvelopeGridRebuildsAfterRetune(t *testing.T) {
	r, ch0, ch1 := gridFixture(t, 180e-12)
	band := r.kern.band
	lo, hi := r.ValidRange()
	fs := 4 * band.B
	n := int((hi - lo) * fs)
	r.EnvelopeGridInto(band.Fc(), lo, 4, make([]complex128, n))
	stale := r.grid.Load()
	for _, d := range []float64{150e-12, 240e-12} {
		if err := r.Retune(d); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		r.EnvelopeGridInto(band.Fc(), lo, 4, got)
		if g := r.grid.Load(); g == stale || g.d != d {
			t.Fatalf("d=%g: grid tables not rebuilt after Retune", d)
		}
		stale = r.grid.Load()
		fresh, err := NewReconstructor(band, d, 0, ch0, ch1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, n)
		fresh.EnvelopeGridInto(band.Fc(), lo, 4, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("d=%g i=%d: retuned %v != fresh %v", d, i, got[i], want[i])
			}
		}
	}
}
