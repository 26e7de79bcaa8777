// Package adc models the analog-to-digital converters reused by the BIST:
// sample-and-hold with Gaussian aperture jitter, mid-rise quantization with
// clipping, gain and offset errors and input-referred noise. The paper's
// configuration is two 10-bit converters at 90 MS/s with 3 ps rms sampling
// jitter.
package adc

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/sig"
)

// Config describes one converter channel.
type Config struct {
	// Bits is the resolution (1..30). 0 disables quantization (ideal ADC).
	Bits int
	// FullScale is the +- input range in volts; required when Bits > 0.
	FullScale float64
	// Gain is the channel gain error as a multiplier (0 means ideal = 1).
	Gain float64
	// Offset is the additive channel offset in volts.
	Offset float64
	// JitterRMS is the Gaussian aperture jitter in seconds rms.
	JitterRMS float64
	// NoiseRMS is input-referred Gaussian noise in volts rms.
	NoiseRMS float64
	// NL optionally applies a static-nonlinearity (INL) profile to the
	// quantizer's reconstruction levels; it must have 2^Bits entries.
	NL *StaticNL
	// Seed makes the stochastic impairments reproducible.
	Seed int64
}

// ADC is a configured converter channel.
type ADC struct {
	cfg Config
	rng *rand.Rand
}

// New validates the configuration and builds a converter.
func New(cfg Config) (*ADC, error) {
	if cfg.Bits < 0 || cfg.Bits > 30 {
		return nil, fmt.Errorf("adc: bits %d outside [0, 30]", cfg.Bits)
	}
	if cfg.Bits > 0 && cfg.FullScale <= 0 {
		return nil, fmt.Errorf("adc: full scale %g must be positive when quantizing", cfg.FullScale)
	}
	if cfg.JitterRMS < 0 || cfg.NoiseRMS < 0 {
		return nil, fmt.Errorf("adc: negative jitter/noise")
	}
	if cfg.Gain == 0 {
		cfg.Gain = 1
	}
	if cfg.NL != nil {
		if cfg.Bits == 0 {
			return nil, fmt.Errorf("adc: static NL requires a quantizing ADC (Bits > 0)")
		}
		if len(cfg.NL.INL) != 1<<uint(cfg.Bits) {
			return nil, fmt.Errorf("adc: NL profile has %d entries for %d bits",
				len(cfg.NL.INL), cfg.Bits)
		}
	}
	return &ADC{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the effective configuration.
func (a *ADC) Config() Config { return a.cfg }

// LSB returns the quantization step, or 0 for an ideal ADC.
func (a *ADC) LSB() float64 {
	if a.cfg.Bits == 0 {
		return 0
	}
	return 2 * a.cfg.FullScale / float64(int64(1)<<uint(a.cfg.Bits))
}

// Quantize maps an analog value to the reconstructed quantized level
// (mid-rise), clipping at the full-scale rails and applying the static
// nonlinearity profile when configured.
func (a *ADC) Quantize(v float64) float64 {
	if a.cfg.Bits == 0 {
		return v
	}
	lsb := a.LSB()
	half := float64(int64(1) << uint(a.cfg.Bits-1))
	code := math.Floor(v/lsb) + 0.5
	if code > half-0.5 {
		code = half - 0.5
	}
	if code < -half+0.5 {
		code = -half + 0.5
	}
	if a.cfg.NL != nil {
		idx := int(code - 0.5 + half)
		if idx >= 0 && idx < len(a.cfg.NL.INL) {
			code += a.cfg.NL.INL[idx]
		}
	}
	return code * lsb
}

// Analog runs the analog front end at the given instants — aperture jitter,
// gain, offset, input-referred noise — without quantization, writing the
// held voltages into out (len(out) must be >= len(times)). It runs in three
// passes: every jitter and noise value is drawn serially in the converter's
// interleaved stream order (jitter_i, then noise_i), the jittered instants
// (staged in out) are evaluated across the par pool, and the noise is added
// in index order. Each sample sees exactly the operations of a one-pass
// serial loop, so the result is bit-identical at any worker count; x.At
// must be safe for concurrent use (pure in t, as every sig.Signal in this
// module is). Successive calls continue the random streams, so they must
// not run concurrently on one converter.
func (a *ADC) Analog(x sig.Signal, times, out []float64) {
	n := len(times)
	out = out[:n]
	var noise []float64
	if a.cfg.NoiseRMS > 0 {
		noise = make([]float64, n)
	}
	for i, t := range times {
		if a.cfg.JitterRMS > 0 {
			t += a.cfg.JitterRMS * a.rng.NormFloat64()
		}
		out[i] = t
		if noise != nil {
			noise[i] = a.rng.NormFloat64()
		}
	}
	gain, offset := a.cfg.Gain, a.cfg.Offset
	par.ForChunks(n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = gain*x.At(out[i]) + offset
		}
	})
	for i, v := range noise {
		out[i] += a.cfg.NoiseRMS * v
	}
}

// Sample acquires the signal at the given instants, applying aperture
// jitter, gain, offset, noise and quantization. The instants themselves are
// the requested (nominal) times; the jitter perturbs the actual acquisition.
func (a *ADC) Sample(x sig.Signal, times []float64) []float64 {
	out := make([]float64, len(times))
	a.Analog(x, times, out)
	for i, v := range out {
		out[i] = a.Quantize(v)
	}
	return out
}

// Int16Capable reports whether this converter's output fits the packed
// fixed-point capture format: a mid-rise quantizer emits codes at odd
// half-LSB multiples, so twice the code is an odd integer — representable
// in an int16 for up to 15 bits — provided no static-nonlinearity profile
// shifts the reconstruction levels off the uniform grid. The paper's 10-bit
// converters qualify with room to spare.
func (a *ADC) Int16Capable() bool {
	return a.cfg.Bits > 0 && a.cfg.Bits <= 15 && a.cfg.NL == nil
}

// EncodeInt16 quantizes an analog value to the packed code 2*code (an odd
// integer; the clipping matches Quantize). Only valid for an Int16Capable
// converter.
func (a *ADC) EncodeInt16(v float64) int16 {
	lsb := a.LSB()
	half := float64(int64(1) << uint(a.cfg.Bits-1))
	code := math.Floor(v/lsb) + 0.5
	if code > half-0.5 {
		code = half - 0.5
	}
	if code < -half+0.5 {
		code = -half + 0.5
	}
	return int16(2 * code)
}

// DecodeInt16 maps a packed code back to the reconstructed analog level.
// Halving the code is exact and the final multiply is the same operation
// Quantize performs, so DecodeInt16(EncodeInt16(v)) == Quantize(v)
// bit-for-bit — the property that lets the fixed-point capture buffer feed
// the float64 reconstruction pipeline with unchanged goldens.
func (a *ADC) DecodeInt16(c int16) float64 {
	return float64(c) / 2 * a.LSB()
}

// SNRIdealDB returns the ideal quantization SNR 6.02 N + 1.76 dB for a
// full-scale sinusoid, or +Inf semantics (400) for an unquantized ADC.
func (a *ADC) SNRIdealDB() float64 {
	if a.cfg.Bits == 0 {
		return 400
	}
	return 6.02*float64(a.cfg.Bits) + 1.76
}

// Clock generates sampling instants t[n] = Phase + n * Period, optionally
// perturbed by Gaussian edge jitter. It models the paper's delayed clock
// pair: two Clocks sharing a Period but offset by the DCDE delay D.
type Clock struct {
	Period    float64
	Phase     float64
	JitterRMS float64
	rng       *rand.Rand
}

// NewClock validates and builds a clock; seed controls the jitter stream.
func NewClock(period, phase, jitterRMS float64, seed int64) (*Clock, error) {
	if period <= 0 {
		return nil, fmt.Errorf("adc: clock period %g must be positive", period)
	}
	if jitterRMS < 0 {
		return nil, fmt.Errorf("adc: negative clock jitter")
	}
	return &Clock{Period: period, Phase: phase, JitterRMS: jitterRMS,
		rng: rand.New(rand.NewSource(seed))}, nil
}

// Times returns n successive sampling instants starting at index n0.
func (c *Clock) Times(n0, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := c.Phase + float64(n0+i)*c.Period
		if c.JitterRMS > 0 {
			t += c.JitterRMS * c.rng.NormFloat64()
		}
		out[i] = t
	}
	return out
}

// Rate returns the sample rate in Hz.
func (c *Clock) Rate() float64 { return 1 / c.Period }
