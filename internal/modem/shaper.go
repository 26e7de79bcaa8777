package modem

import (
	"fmt"
	"math"

	"repro/internal/par"
)

// ShapedEnvelope is the continuous complex envelope of a pulse-shaped symbol
// stream: env(t) = sum_k a[k] p(t - k Ts). With Cyclic set, the symbol index
// wraps modulo the stream length, making the process defined (and cyclo-
// stationary) for all t — convenient for long PSD captures from a finite
// symbol memory, exactly like a looping arbitrary waveform generator.
type ShapedEnvelope struct {
	Symbols []complex128
	Pulse   *SRRC
	// Cyclic selects periodic extension of the symbol stream.
	Cyclic bool
	// Gain scales the envelope (1 = unscaled).
	Gain float64
}

// NewShapedEnvelope validates and builds a shaped envelope with unit gain.
func NewShapedEnvelope(symbols []complex128, pulse *SRRC, cyclic bool) (*ShapedEnvelope, error) {
	if len(symbols) == 0 {
		return nil, fmt.Errorf("modem: shaped envelope needs at least one symbol")
	}
	if pulse == nil {
		return nil, fmt.Errorf("modem: shaped envelope needs a pulse")
	}
	if cyclic && len(symbols) < 2*pulse.SpanSymbols() {
		return nil, fmt.Errorf("modem: cyclic stream of %d symbols shorter than pulse span %d x2",
			len(symbols), pulse.SpanSymbols())
	}
	return &ShapedEnvelope{Symbols: symbols, Pulse: pulse, Cyclic: cyclic, Gain: 1}, nil
}

// At implements sig.Envelope. Every tap of one instant shares the
// fractional symbol offset f, so one SRRC.Taps call yields the whole pulse
// bank; tap j weights symbol kc + Span - j, which the loop walks downwards.
// The bank lives on the stack, so At makes no heap allocation.
func (s *ShapedEnvelope) At(t float64) complex128 {
	p := s.Pulse
	ts := p.Ts
	n := len(s.Symbols)
	if s.Cyclic {
		// Reduce once so evaluations are bit-identical across periods;
		// without this, float rounding at the pulse truncation edge breaks
		// exact periodicity.
		period := float64(n) * ts
		t = math.Mod(t, period)
		if t < 0 {
			t += period
		}
	}
	u := t / ts
	kc := math.Floor(u)
	var buf [2 * maxSpan]float64
	taps := buf[:2*p.Span]
	p.Taps(u-kc, taps)
	k := int(kc) + p.Span
	var re, im float64
	if s.Cyclic {
		idx := k % n
		if idx < 0 {
			idx += n
		}
		for _, w := range taps {
			a := s.Symbols[idx]
			re += w * real(a)
			im += w * imag(a)
			if idx--; idx < 0 {
				idx = n - 1
			}
		}
	} else {
		for j, w := range taps {
			if idx := k - j; idx >= 0 && idx < n {
				a := s.Symbols[idx]
				re += w * real(a)
				im += w * imag(a)
			}
		}
	}
	return complex(re*s.Gain, im*s.Gain)
}

// Duration returns the time extent of the (non-cyclic) burst including the
// pulse tails.
func (s *ShapedEnvelope) Duration() float64 {
	ts := s.Pulse.SymbolPeriod()
	return (float64(len(s.Symbols)) + 2*float64(s.Pulse.SpanSymbols())) * ts
}

// AvgPower estimates the mean envelope power E[|env|^2] by sampling nPts
// instants across one symbol-stream period (or the burst for non-cyclic).
// The probes run concurrently; SRRC.Taps only reads the pulse, so that is
// safe.
func (s *ShapedEnvelope) AvgPower(nPts int) float64 {
	if nPts < 2 {
		nPts = 256
	}
	ts := s.Pulse.SymbolPeriod()
	var t0, t1 float64
	if s.Cyclic {
		t0, t1 = 0, float64(len(s.Symbols))*ts
	} else {
		t0 = -float64(s.Pulse.SpanSymbols()) * ts
		t1 = t0 + s.Duration()
	}
	dt := (t1 - t0) / float64(nPts)
	// The probes are independent, so they fan out over the par pool; the
	// per-point powers are then summed serially in index order, which keeps
	// the estimate bit-identical at any worker count.
	pw := make([]float64, nPts)
	par.For(nPts, func(i int) {
		v := s.At(t0 + (float64(i)+0.5)*dt)
		pw[i] = real(v)*real(v) + imag(v)*imag(v)
	})
	p := 0.0
	for _, v := range pw {
		p += v
	}
	return p / float64(nPts)
}

// SetAvgPower rescales Gain so AvgPower becomes the target power.
func (s *ShapedEnvelope) SetAvgPower(target float64, nPts int) {
	s.Gain = 1
	p := s.AvgPower(nPts)
	if p <= 0 {
		return
	}
	s.Gain = math.Sqrt(target / p)
}
