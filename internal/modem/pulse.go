package modem

import (
	"fmt"
	"math"
)

// maxSpan is the largest one-sided SRRC span NewSRRC accepts. It bounds the
// tap bank a ShapedEnvelope evaluates per instant, so that bank fits a
// fixed stack buffer.
const maxSpan = 32

// SRRC is the square-root raised cosine pulse with roll-off Alpha used by
// the paper's test signal (alpha = 0.5, 10 MHz symbol rate). The pulse is
// normalised to unit peak: At(0) = 1. Build it with NewSRRC and treat the
// fields as read-only: Taps relies on constants derived from them.
type SRRC struct {
	Ts    float64 // symbol period, seconds
	Alpha float64 // roll-off in (0, 1]
	Span  int     // one-sided truncation span in symbols
	peak  float64
	// bank holds the integer-offset halves of the angle-addition split
	// Taps uses, one entry per tap m = -Span .. Span-1. It is built once
	// in NewSRRC and never written again, so concurrent Taps calls are safe.
	bank []srrcTap
}

// srrcTap holds sin/cos of pi·m·(1-alpha) and pi·m·(1+alpha) for one
// integer tap offset m.
type srrcTap struct {
	m          float64
	sinL, cosL float64 // pi·m·(1-alpha)
	sinH, cosH float64 // pi·m·(1+alpha)
}

// NewSRRC builds an SRRC pulse; span <= 0 defaults to 8 symbols and a span
// above maxSpan is rejected.
func NewSRRC(ts, alpha float64, span int) (*SRRC, error) {
	if ts <= 0 {
		return nil, fmt.Errorf("modem: SRRC: Ts %g must be positive", ts)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("modem: SRRC: alpha %g outside (0, 1]", alpha)
	}
	if span <= 0 {
		span = 8
	}
	if span > maxSpan {
		return nil, fmt.Errorf("modem: SRRC: span %d above the %d-symbol maximum", span, maxSpan)
	}
	p := &SRRC{Ts: ts, Alpha: alpha, Span: span, peak: 1}
	p.peak = p.raw(0)
	p.bank = make([]srrcTap, 2*span)
	for j := range p.bank {
		m := float64(j - span)
		b := &p.bank[j]
		b.m = m
		b.sinL, b.cosL = math.Sincos(math.Pi * m * (1 - alpha))
		b.sinH, b.cosH = math.Sincos(math.Pi * m * (1 + alpha))
	}
	return p, nil
}

// raw evaluates the textbook unit-energy SRRC expression (up to a constant)
// at x = t/Ts symbol periods.
func (p *SRRC) raw(x float64) float64 {
	a := p.Alpha
	// Singularity at x = +-1/(4a).
	if q := math.Abs(4 * a * x); math.Abs(q-1) < 1e-8 {
		return a / math.Sqrt2 * ((1+2/math.Pi)*math.Sin(math.Pi/(4*a)) +
			(1-2/math.Pi)*math.Cos(math.Pi/(4*a)))
	}
	if math.Abs(x) < 1e-10 {
		return 1 - a + 4*a/math.Pi
	}
	num := math.Sin(math.Pi*x*(1-a)) + 4*a*x*math.Cos(math.Pi*x*(1+a))
	den := math.Pi * x * (1 - 16*a*a*x*x)
	return num / den
}

// edgeTaper smoothly truncates a pulse: 1 inside (span-1) symbol periods,
// a raised-cosine roll-off across the final period and exactly 0 beyond the
// span. Continuous truncation keeps pulse-shaped envelopes exactly periodic
// under cyclic extension (a hard edge is ulp-sensitive to time rounding).
func edgeTaper(t, ts float64, span int) float64 {
	x := math.Abs(t) / ts
	edge := float64(span)
	switch {
	case x >= edge:
		return 0
	case x <= edge-1:
		return 1
	default:
		return 0.5 * (1 + math.Cos(math.Pi*(x-edge+1)))
	}
}

// At evaluates the pulse at time t (seconds), centred at t = 0,
// peak-normalised and smoothly truncated to the span. It is the per-instant
// reference form of Taps.
func (p *SRRC) At(t float64) float64 {
	w := edgeTaper(t, p.Ts, p.Span)
	if w == 0 {
		return 0
	}
	return w * p.raw(t/p.Ts) / p.peak
}

// nearZero is the |x| below which Taps evaluates a tap through raw; see
// Taps.
const nearZero = 1e-4

// Taps writes the pulse at every tap that shares the fractional symbol
// offset f in [0, 1): out[j] = At((m+f)·Ts) with m = j - Span, for
// j = 0 .. 2·Span-1. Those are all the taps of the span that can be
// nonzero. out must have length 2·Span.
//
// With x = m + f, angle addition splits each trig term of raw into an
// f-only factor and a per-m constant from the bank:
//
//	sin(pi·x·(1-a)) = sin(pi·f·(1-a))·cos(pi·m·(1-a)) + cos(pi·f·(1-a))·sin(pi·m·(1-a))
//	cos(pi·x·(1+a)) = cos(pi·f·(1+a))·cos(pi·m·(1+a)) - sin(pi·f·(1+a))·sin(pi·m·(1+a))
//
// and the edge taper of the two end taps is (1 -+ cos(pi·f))/2. The whole
// bank then costs two Sincos and one Cos, plus one division per tap.
//
// Two kinds of tap go through raw instead. A tap within 1e-8 of the
// singularity |4·a·x| = 1 takes raw's limit there, as At does. A tap with
// |x| < nearZero also uses raw: at m = -1 and f -> 1 the split numerator
// cancels to O(x) while its rounding stays O(1e-16), so the quotient would
// lose digits that raw's direct form keeps.
func (p *SRRC) Taps(f float64, out []float64) {
	a := p.Alpha
	sL, cL := math.Sincos(math.Pi * f * (1 - a))
	sH, cH := math.Sincos(math.Pi * f * (1 + a))
	piPeak := math.Pi * p.peak
	out = out[:len(p.bank)]
	for j := range p.bank {
		b := &p.bank[j]
		x := b.m + f
		q := 4 * a * x
		if math.Abs(math.Abs(q)-1) < 1e-8 || math.Abs(x) < nearZero {
			out[j] = p.raw(x) / p.peak
			continue
		}
		num := sL*b.cosL + cL*b.sinL + q*(cH*b.cosH-sH*b.sinH)
		out[j] = num / (piPeak * x * (1 - q*q))
	}
	c := math.Cos(math.Pi * f)
	out[0] *= 0.5 * (1 - c)
	out[len(out)-1] *= 0.5 * (1 + c)
}

// SymbolPeriod returns Ts.
func (p *SRRC) SymbolPeriod() float64 { return p.Ts }

// SpanSymbols returns the one-sided truncation span in symbol periods: the
// pulse is zero for |t| >= SpanSymbols * Ts.
func (p *SRRC) SpanSymbols() int { return p.Span }

// PulseEnergy numerically integrates p^2 over its support (for matched
// filter normalisation), using oversample points per symbol period.
func PulseEnergy(p *SRRC, oversample int) float64 {
	if oversample < 2 {
		oversample = 16
	}
	ts := p.SymbolPeriod()
	dt := ts / float64(oversample)
	span := float64(p.SpanSymbols()) * ts
	e := 0.0
	for t := -span; t <= span; t += dt {
		v := p.At(t)
		e += v * v * dt
	}
	return e
}
