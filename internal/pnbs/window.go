package pnbs

import "sync"

// The Kaiser taper applied to the truncated interpolation series is
// independent of the candidate delay D-hat: w(x) = I0(beta sqrt(1-x^2)) /
// I0(beta) depends only on beta and the normalised tap offset x. The LMS
// hot loop, however, evaluates it for every tap of every instant of every
// candidate delay, so the seed implementation spent a BesselI0 call (plus a
// square root) per tap per instant. windowLUT tabulates the taper once per
// beta and interpolates; the table is shared process-wide across all
// reconstructors and all candidate delays.
//
// The taper is sampled in the y = x^2 domain, where it is an entire
// function of y (I0's power series contains only even powers of its
// argument, so w = sum_k (beta^2 (1-y)/4)^k / (k!)^2 / I0(beta)); sampling
// in y avoids the square-root singularity of d/dx sqrt(1-x^2) at the band
// edge and lets a cubic fit reach ~1e-13 absolute accuracy with a modest
// table. Catmull-Rom ghost points one step outside [0, 1] come from the
// same series, which converges for negative arguments too.
type windowLUT struct {
	// vals[k] = w(y) at y = (k-1)*step for k in [0, lutSize+2]: one ghost
	// point on each side of [0, 1] for the cubic end segments.
	vals []float64
	inv  float64 // lutSize, as a float: 1/step
	// coef[4i:4i+4] are segment i's Catmull-Rom coefficients in monomial
	// form (w = c0 + fr(c1 + fr(c2 + fr c3))): the same cubic as at(), with
	// the four-sample combination folded out at build time so the fused
	// path's hot loop is a three-step Horner over one cache line instead of
	// an eleven-op chain. The refactored rounding differs from at() by ~1
	// ulp, which is why only the tolerance-contracted fused path uses it —
	// at() keeps the pinned operation sequence.
	coef []float64
}

// lutSize is the number of interpolation segments spanning y in [0, 1].
const lutSize = 1 << 15

// i0EvenSeries evaluates I0 as a function of the SQUARED argument:
// i0EvenSeries(u*u) = I0(u). Unlike the asymptotic approximation in dsp,
// the series accepts negative w (the analytic continuation used for the
// ghost points) and is exact to machine precision, so the tabulated taper
// is at least as accurate as the seed's per-tap evaluation.
func i0EvenSeries(w float64) float64 {
	sum, term := 1.0, 1.0
	for k := 1; k < 400; k++ {
		term *= w / (4 * float64(k) * float64(k))
		sum += term
		if term < 1e-17*sum && term > -1e-17*sum {
			break
		}
	}
	return sum
}

func newWindowLUT(beta float64) *windowLUT {
	l := &windowLUT{
		vals: make([]float64, lutSize+3),
		inv:  float64(lutSize),
	}
	den := i0EvenSeries(beta * beta)
	step := 1 / float64(lutSize)
	for k := range l.vals {
		y := (float64(k) - 1) * step
		l.vals[k] = i0EvenSeries(beta*beta*(1-y)) / den
	}
	l.coef = make([]float64, 4*lutSize)
	for i := 0; i < lutSize; i++ {
		v0, v1, v2, v3 := l.vals[i], l.vals[i+1], l.vals[i+2], l.vals[i+3]
		c := l.coef[4*i : 4*i+4]
		c[0] = v1
		c[1] = 0.5 * (v2 - v0)
		c[2] = 0.5 * (2*v0 - 5*v1 + 4*v2 - v3)
		c[3] = 0.5 * (3*(v1-v2) + v3 - v0)
	}
	return l
}

// at interpolates the taper at y = x^2, 0 <= y < 1, by the Catmull-Rom
// cubic through the four bracketing samples. This is the hottest leaf of
// the LMS loop (one call per tap per instant per candidate delay), so the
// four neighbours are fetched through a single length-4 sub-slice: one
// bounds check instead of four, with the interpolation arithmetic itself
// untouched (its exact operation sequence is pinned by the bit-identity
// contract of At).
func (l *windowLUT) at(y float64) float64 {
	p := y * l.inv
	i := int(p)
	if i > lutSize-1 {
		i = lutSize - 1
	}
	fr := p - float64(i)
	v := l.vals[i : i+4 : i+4]
	v0, v1, v2, v3 := v[0], v[1], v[2], v[3]
	return v1 + 0.5*fr*(v2-v0+fr*(2*v0-5*v1+4*v2-v3+fr*(3*(v1-v2)+v3-v0)))
}

// lutCache shares one table per beta across every reconstructor in the
// process (the taper does not depend on the band, the delay, or the tap
// count — only the x normalisation does, and that stays in window()).
var lutCache sync.Map // float64 beta -> *windowLUT

func lutFor(beta float64) *windowLUT {
	if v, ok := lutCache.Load(beta); ok {
		return v.(*windowLUT)
	}
	l := newWindowLUT(beta)
	v, _ := lutCache.LoadOrStore(beta, l)
	return v.(*windowLUT)
}
