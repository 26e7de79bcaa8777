package rf

import (
	"math"

	"repro/internal/sig"
)

// AnalogFIR is a continuous-time FIR operating on envelopes: a tapped delay
// line with tap spacing Dt seconds,
//
//	y(t) = sum_k h[k] x(t - k Dt),
//
// used to model the transmitter's baseband reconstruction lowpass after the
// DAC. Because it is evaluated analytically it composes with the arbitrary-
// instant sampling required by nonuniform capture.
type AnalogFIR struct {
	Taps []float64
	Dt   float64
}

// GroupDelay returns the filter delay in seconds.
func (f *AnalogFIR) GroupDelay() float64 {
	return float64(len(f.Taps)-1) / 2 * f.Dt
}

// ApplyEnv filters an envelope. The output is advanced by the group delay so
// the filtered waveform stays time-aligned with its input.
func (f *AnalogFIR) ApplyEnv(env sig.Envelope) sig.Envelope {
	gd := f.GroupDelay()
	taps := f.Taps
	dt := f.Dt
	return sig.EnvelopeFunc(func(t float64) complex128 {
		var acc complex128
		base := t + gd
		for k, h := range taps {
			acc += env.At(base-float64(k)*dt) * complex(h, 0)
		}
		return acc
	})
}

// ZOH models the zero-order hold of a DAC running at rate Fs: the envelope
// is frozen at the most recent DAC update instant. Combined with an
// AnalogFIR reconstruction filter it reproduces DAC sinc droop and images.
type ZOH struct {
	Fs float64
}

// ApplyEnv implements the hold.
func (z *ZOH) ApplyEnv(env sig.Envelope) sig.Envelope {
	ts := 1 / z.Fs
	return sig.EnvelopeFunc(func(t float64) complex128 {
		return env.At(math.Floor(t/ts) * ts)
	})
}
