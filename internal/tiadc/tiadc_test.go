package tiadc

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adc"
	"repro/internal/par"
	"repro/internal/sig"
)

func TestDCDESetQuantizationAndBias(t *testing.T) {
	d := DCDE{Step: 1e-12, Min: 0, Max: 500e-12, Bias: 0.3e-12}
	got, err := d.Set(180.4e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-180.3e-12) > 1e-18 {
		t.Errorf("actual delay %g, want 180.3 ps", got)
	}
	if _, err := d.Set(600e-12); err == nil {
		t.Error("out-of-range delay must fail")
	}
	if _, err := d.Set(-1e-12); err == nil {
		t.Error("below range must fail")
	}
	// Continuous element: no quantization.
	c := DCDE{Min: 0, Max: 1e-9}
	if got, _ := c.Set(123.456e-12); got != 123.456e-12 {
		t.Errorf("continuous DCDE altered the delay: %g", got)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{DCDE: DCDE{Min: 1, Max: 0}}); err == nil {
		t.Error("inverted DCDE range must fail")
	}
	if _, err := New(Config{ClockJitterRMS: -1}); err == nil {
		t.Error("negative jitter must fail")
	}
	if _, err := New(Config{Ch0: adc.Config{Bits: -3}}); err == nil {
		t.Error("bad channel 0 must fail")
	}
	if _, err := New(Config{Ch1: adc.Config{Bits: 99}}); err == nil {
		t.Error("bad channel 1 must fail")
	}
}

func TestCaptureIdealChannels(t *testing.T) {
	ti, err := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	period := 1e-8
	d := 180e-12
	cap, err := ti.Capture(tone, period, d, 1e-7, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cap.N() != 64 || cap.ActualD != d || cap.NominalD != d {
		t.Fatalf("capture metadata: %+v", cap)
	}
	t0s := cap.Times0()
	t1s := cap.Times1(d)
	for i := 0; i < cap.N(); i++ {
		if math.Abs(cap.Ch0[i]-tone.At(t0s[i])) > 1e-12 {
			t.Fatalf("ch0[%d] mismatch", i)
		}
		if math.Abs(cap.Ch1[i]-tone.At(t1s[i])) > 1e-12 {
			t.Fatalf("ch1[%d] mismatch", i)
		}
	}
}

func TestCaptureAppliesDCDEBias(t *testing.T) {
	bias := 2.5e-12
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9, Bias: bias}})
	ramp := sig.SignalFunc(func(t float64) float64 { return t * 1e9 })
	cap, err := ti.Capture(ramp, 1e-8, 100e-12, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap.ActualD-(100e-12+bias)) > 1e-20 {
		t.Errorf("actual delay %g", cap.ActualD)
	}
	// Channel 1 samples the ramp later by the *actual* delay.
	for i := range cap.Ch1 {
		dt := (cap.Ch1[i] - cap.Ch0[i]) / 1e9
		if math.Abs(dt-cap.ActualD) > 1e-18 {
			t.Fatalf("sample %d: measured delay %g", i, dt)
		}
	}
}

func TestCaptureValidation(t *testing.T) {
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	x := sig.SignalFunc(func(float64) float64 { return 0 })
	if _, err := ti.Capture(x, 0, 1e-10, 0, 4); err == nil {
		t.Error("zero period must fail")
	}
	if _, err := ti.Capture(x, 1e-8, 1e-10, 0, 0); err == nil {
		t.Error("zero length must fail")
	}
	if _, err := ti.Capture(x, 1e-8, 5e-9, 0, 4); err == nil {
		t.Error("delay outside DCDE must fail")
	}
}

func TestCaptureChannelMismatchVisible(t *testing.T) {
	ti, err := New(Config{
		Ch0:  adc.Config{Gain: 1.05, Offset: 0.01},
		Ch1:  adc.Config{Gain: 0.95, Offset: -0.01},
		DCDE: DCDE{Min: 0, Max: 1e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	dc := sig.SignalFunc(func(float64) float64 { return 1 })
	cap, _ := ti.Capture(dc, 1e-8, 0, 0, 2)
	if math.Abs(cap.Ch0[0]-1.06) > 1e-12 || math.Abs(cap.Ch1[0]-0.94) > 1e-12 {
		t.Errorf("mismatch not applied: %g, %g", cap.Ch0[0], cap.Ch1[0])
	}
}

func TestCaptureClockJitterReproducible(t *testing.T) {
	mk := func(seed int64) *Capture {
		ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}, ClockJitterRMS: 3e-12, Seed: seed})
		cap, _ := ti.Capture(&sig.Tone{Amp: 1, Freq: 1e9}, 1.111e-8, 180e-12, 0, 32)
		return cap
	}
	a, b, c := mk(4), mk(4), mk(5)
	for i := range a.Ch0 {
		if a.Ch0[i] != b.Ch0[i] || a.Ch1[i] != b.Ch1[i] {
			t.Fatal("same seed must reproduce")
		}
	}
	same := true
	for i := range a.Ch0 {
		if a.Ch0[i] != c.Ch0[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should differ")
	}
}

func TestChannelAccessor(t *testing.T) {
	ti, _ := New(Config{DCDE: DCDE{Min: 0, Max: 1e-9}})
	if _, err := ti.Channel(0); err != nil {
		t.Error(err)
	}
	if _, err := ti.Channel(1); err != nil {
		t.Error(err)
	}
	if _, err := ti.Channel(2); err == nil {
		t.Error("channel 2 must fail")
	}
}

// impairedConfig is a representative impaired two-channel setup: jittered,
// noisy 10-bit converters with gain/offset mismatch, so both the random
// streams and the int16 capture memory are exercised.
func impairedConfig() Config {
	return Config{
		Ch0: adc.Config{Bits: 10, FullScale: 1.5, JitterRMS: 3e-12,
			NoiseRMS: 1e-3, Seed: 11},
		Ch1: adc.Config{Bits: 10, FullScale: 1.5, Gain: 1.01, Offset: 2e-3,
			JitterRMS: 3e-12, NoiseRMS: 1e-3, Seed: 22},
		DCDE:           DCDE{Min: 0, Max: 1e-9, Bias: 0.4e-12},
		ClockJitterRMS: 3e-12,
		Seed:           7,
	}
}

// TestCaptureWorkerInvariance pins the acquisition's determinism contract:
// the analog front end fans its signal evaluations over the par pool while
// the jitter and noise streams are drawn serially, so every capture —
// floats and packed codes, int16 and static-NL float paths alike — is
// byte-identical at any worker count, including successive captures that
// continue the converters' random streams.
func TestCaptureWorkerInvariance(t *testing.T) {
	nl, err := adc.NewRandomNL(10, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	floatPath := impairedConfig()
	floatPath.Ch1.NL = nl
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	for name, cfg := range map[string]Config{"int16": impairedConfig(), "static-nl": floatPath} {
		capture := func(workers int) []*Capture {
			defer par.SetWorkers(par.SetWorkers(workers))
			ti, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var out []*Capture
			for k := 0; k < 2; k++ {
				c, err := ti.Capture(tone, 1e-8, 180e-12, 1e-7, 900)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, c)
			}
			return out
		}
		ref := capture(1)
		if ref[0].Raw0 == nil || (ref[0].Raw1 == nil) != (name == "static-nl") {
			t.Fatalf("%s: unexpected capture memory layout (Raw0 %v, Raw1 %v)",
				name, ref[0].Raw0 != nil, ref[0].Raw1 != nil)
		}
		for _, w := range []int{2, 8} {
			for k, c := range capture(w) {
				// %v prints every float at round-trip precision (signed
				// zeros included), so equal text means equal bits.
				if fmt.Sprint(*c) != fmt.Sprint(*ref[k]) {
					t.Fatalf("%s capture %d: workers=%d differs from workers=1", name, k, w)
				}
			}
		}
	}
}

func TestCaptureRawDecodesToFloats(t *testing.T) {
	ti, err := New(impairedConfig())
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	c, err := ti.Capture(tone, 1e-8, 180e-12, 1e-7, 300)
	if err != nil {
		t.Fatal(err)
	}
	a0, _ := ti.Channel(0)
	a1, _ := ti.Channel(1)
	for i := range c.Ch0 {
		if got := a0.DecodeInt16(c.Raw0[i]); got != c.Ch0[i] {
			t.Fatalf("ch0 sample %d: decoded %g != stored %g", i, got, c.Ch0[i])
		}
		if got := a1.DecodeInt16(c.Raw1[i]); got != c.Ch1[i] {
			t.Fatalf("ch1 sample %d: decoded %g != stored %g", i, got, c.Ch1[i])
		}
	}
}

func TestCaptureStreamMatchesDirectSampleOracle(t *testing.T) {
	// The capture must be bit-identical to the serial reference: clock
	// times drawn up front, then each channel sampled and quantized in one
	// pass by adc.Sample.
	cfg := impairedConfig()
	ti, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	period, d, t0 := 1e-8, 180e-12, 1e-7
	n := 400
	c, err := ti.Capture(tone, period, d, t0, n)
	if err != nil {
		t.Fatal(err)
	}
	want0, want1 := sampleOracle(t, cfg, tone, period, t0, c.ActualD, n)
	for i := range want0 {
		if c.Ch0[i] != want0[i] || c.Ch1[i] != want1[i] {
			t.Fatalf("sample %d: capture differs from serial oracle", i)
		}
	}
}

// sampleOracle replays the first acquisition of a fresh TIADC built from
// cfg with fresh converters and clocks at the same seeds.
func sampleOracle(t *testing.T, cfg Config, x sig.Signal, period, t0, actualD float64, n int) (ch0, ch1 []float64) {
	t.Helper()
	a0, err := adc.New(cfg.Ch0)
	if err != nil {
		t.Fatal(err)
	}
	a1, err := adc.New(cfg.Ch1)
	if err != nil {
		t.Fatal(err)
	}
	seedBase := cfg.Seed + 1*7919 // first acquisition on a fresh TIADC
	c0, _ := adc.NewClock(period, t0, cfg.ClockJitterRMS, seedBase)
	c1, _ := adc.NewClock(period, t0+actualD, cfg.ClockJitterRMS, seedBase+1)
	return a0.Sample(x, c0.Times(0, n)), a1.Sample(x, c1.Times(0, n))
}

func TestCaptureFloatFallbackWithoutQuantizer(t *testing.T) {
	// Ideal (unquantized) channels cannot use the int16 memory: Raw stays
	// nil and the float path must still match the serial oracle.
	cfg := Config{DCDE: DCDE{Min: 0, Max: 1e-9}, ClockJitterRMS: 3e-12, Seed: 5}
	ti, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tone := &sig.Tone{Amp: 1, Freq: 13e6}
	c, err := ti.Capture(tone, 1e-8, 180e-12, 1e-7, 333)
	if err != nil {
		t.Fatal(err)
	}
	if c.Raw0 != nil || c.Raw1 != nil {
		t.Fatal("ideal channels must not allocate raw buffers")
	}
	want0, want1 := sampleOracle(t, cfg, tone, 1e-8, 1e-7, c.ActualD, 333)
	for i := range want0 {
		if c.Ch0[i] != want0[i] || c.Ch1[i] != want1[i] {
			t.Fatalf("sample %d: float fallback differs from serial oracle", i)
		}
	}
}

// TestDCDEStuck: a frozen control word ignores the programmed setting and
// always realises StuckAt (plus bias) — range validation still applies to
// the nominal, and the stuck path bypasses quantization of the setting.
func TestDCDEStuck(t *testing.T) {
	d := DCDE{Step: 10e-12, Min: 0, Max: 480e-12, Bias: 3e-12, Stuck: true, StuckAt: 8e-12}
	for _, nominal := range []float64{0, 180e-12, 480e-12} {
		got, err := d.Set(nominal)
		if err != nil {
			t.Fatalf("Set(%g): %v", nominal, err)
		}
		if got != 11e-12 {
			t.Errorf("Set(%g) = %g, want stuck 11e-12", nominal, got)
		}
	}
	if _, err := d.Set(500e-12); err == nil {
		t.Error("out-of-range nominal must still error when stuck")
	}
	d.Stuck = false
	got, err := d.Set(180e-12)
	if err != nil {
		t.Fatal(err)
	}
	if got != 183e-12 {
		t.Errorf("unstuck Set = %g, want 183e-12", got)
	}
}
