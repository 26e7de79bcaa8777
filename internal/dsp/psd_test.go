package dsp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/testkit"
)

func TestWelchToneAndNoiseFloor(t *testing.T) {
	// Complex tone of amplitude A at f0 in white noise: the PSD peak should
	// integrate to ~A^2 and the floor should match sigma^2/fs.
	rng := rand.New(rand.NewSource(10))
	fs := 1e6
	f0 := 125e3
	amp := 1.0
	sigma := 0.01
	n := 1 << 16
	x := make([]complex128, n)
	for i := range x {
		phi := 2 * math.Pi * f0 * float64(i) / fs
		s, c := math.Sincos(phi)
		x[i] = complex(amp*c+sigma*rng.NormFloat64(), amp*s+sigma*rng.NormFloat64())
	}
	spec, err := WelchComplex(x, fs, 0, DefaultWelch(4096))
	if err != nil {
		t.Fatal(err)
	}
	_, fpk := spec.PeakBin()
	if math.Abs(fpk-f0) > 2*spec.BinWidth {
		t.Errorf("peak at %g Hz, want %g", fpk, f0)
	}
	// Tone power: integrate +-5 bins around the peak.
	p := spec.PowerInBand(f0-5*spec.BinWidth, f0+5*spec.BinWidth)
	if math.Abs(p-amp*amp) > 0.05*amp*amp {
		t.Errorf("tone power %g, want ~%g", p, amp*amp)
	}
	// Noise floor far from the tone: PSD ~ 2*sigma^2/fs (complex noise has
	// sigma^2 per real dimension).
	floor := spec.PowerInBand(-400e3, -300e3) / 100e3
	want := 2 * sigma * sigma / fs
	if floor < want/3 || floor > want*3 {
		t.Errorf("noise floor %g, want ~%g", floor, want)
	}
	// Total power should approximate tone + noise power.
	tot := spec.TotalPower()
	if math.Abs(tot-(amp*amp+2*sigma*sigma)) > 0.1*amp*amp {
		t.Errorf("total power %g", tot)
	}
}

func TestWelchRealTone(t *testing.T) {
	fs := 1e4
	f0 := 1e3
	n := 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Cos(2*math.Pi*f0*float64(i)/fs)
	}
	spec, err := WelchReal(x, fs, DefaultWelch(2048))
	if err != nil {
		t.Fatal(err)
	}
	// Real tone of amplitude 2: power 2, split between +-f0 (1 each).
	pp := spec.PowerInBand(f0-50, f0+50)
	pn := spec.PowerInBand(-f0-50, -f0+50)
	if math.Abs(pp-1) > 0.05 || math.Abs(pn-1) > 0.05 {
		t.Errorf("split powers %g, %g, want 1, 1", pp, pn)
	}
}

func TestWelchErrors(t *testing.T) {
	x := make([]complex128, 100)
	if _, err := WelchComplex(x, 1, 0, WelchConfig{SegmentLen: 0}); err == nil {
		t.Error("segment 0 should fail")
	}
	if _, err := WelchComplex(x, 1, 0, WelchConfig{SegmentLen: 200}); err == nil {
		t.Error("segment > input should fail")
	}
	if _, err := WelchComplex(x, 1, 0, WelchConfig{SegmentLen: 50, Overlap: 50}); err == nil {
		t.Error("overlap == segment should fail")
	}
	if _, err := WelchComplex(x, 1, 0, WelchConfig{SegmentLen: 50, Overlap: -1}); err == nil {
		t.Error("negative overlap should fail")
	}
}

func TestPeriodogramCentreShift(t *testing.T) {
	n := 1024
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(1, 0) // DC only
	}
	spec, err := Periodogram(x, 1e6, 2e9, Hann, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, fpk := spec.PeakBin()
	if math.Abs(fpk-2e9) > spec.BinWidth {
		t.Errorf("centre-shifted DC peak at %g, want 2e9", fpk)
	}
}

func TestSpectrumHelpers(t *testing.T) {
	s := &Spectrum{
		Freqs:    []float64{-1, 0, 1},
		PSD:      []float64{0, 2, 1},
		BinWidth: 1,
	}
	if s.Len() != 3 {
		t.Error("Len")
	}
	if p := s.PowerInBand(1, -1); p != 3 { // swapped bounds
		t.Errorf("PowerInBand swapped = %g", p)
	}
	db := s.PSDdB()
	if db[0] != -400 {
		t.Error("zero PSD should clamp at -400 dB")
	}
	if math.Abs(db[1]-10*math.Log10(2)) > 1e-12 {
		t.Error("PSDdB value")
	}
}

// TestPowerInBandBoundaries pins the binary-search bin-range behaviour at
// the awkward edges: bands outside the axis, single-bin bands, inverted
// bounds and exact bin-centre hits.
func TestPowerInBandBoundaries(t *testing.T) {
	s := &Spectrum{
		Freqs:    []float64{-2, -1, 0, 1, 2},
		PSD:      []float64{1, 2, 4, 8, 16},
		BinWidth: 1,
	}
	cases := []struct {
		name   string
		f1, f2 float64
		want   float64
	}{
		{"whole axis", -2, 2, 31},
		{"beyond both ends", -100, 100, 31},
		{"entirely below", -10, -3, 0},
		{"entirely above", 3, 10, 0},
		{"between bin centres", 0.25, 0.75, 0},
		{"single bin exact", 1, 1, 8},
		{"single bin straddled", 0.5, 1.5, 8},
		{"inverted bounds", 1.5, 0.5, 8},
		{"inverted whole axis", 2, -2, 31},
		{"left edge only", -2, -2, 1},
		{"right edge only", 2, 2, 16},
	}
	for _, c := range cases {
		if got := s.PowerInBand(c.f1, c.f2); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("%s: PowerInBand(%g, %g) = %g, want %g", c.name, c.f1, c.f2, got, c.want)
		}
	}
	// TotalPower must agree with the full-axis band query.
	if got, want := s.TotalPower(), s.PowerInBand(-2, 2); got != want {
		t.Errorf("TotalPower %g != full-axis PowerInBand %g", got, want)
	}
	empty := &Spectrum{}
	if empty.PowerInBand(-1, 1) != 0 || empty.TotalPower() != 0 {
		t.Error("empty spectrum should integrate to 0")
	}
}

// TestWelchRealMatchesComplex differentially checks the half-size
// real-FFT Welch path against the widen-to-complex reference on the same
// record, for both power-of-two and odd (Bluestein-fallback) segments.
func TestWelchRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n := 6000
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.21*float64(i)) + 0.3*rng.NormFloat64()
	}
	c := make([]complex128, n)
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	for _, segLen := range []int{512, 500, 511} { // pow2, even-Bluestein, odd
		cfg := DefaultWelch(segLen)
		sre, err := WelchReal(x, 1e6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := WelchComplex(c, 1e6, 0, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sre.Len() != ref.Len() || sre.BinWidth != ref.BinWidth {
			t.Fatalf("seg %d: shape mismatch", segLen)
		}
		for i := range ref.PSD {
			d := math.Abs(sre.PSD[i] - ref.PSD[i])
			if d > 1e-12*(ref.PSD[i]+1e-30) && d > 1e-25 {
				t.Fatalf("seg %d bin %d: real-path PSD %g vs complex %g", segLen, i, sre.PSD[i], ref.PSD[i])
			}
			if sre.Freqs[i] != ref.Freqs[i] {
				t.Fatalf("seg %d bin %d: freq axis diverged", segLen, i)
			}
		}
	}
}

// TestWelchWorkerCountByteIdentical asserts the Welch determinism
// contract: the canonical encoding of the Spectrum is byte-identical for
// worker counts 1, 2 and 8 on the same input, for both the complex and
// real estimators.
func TestWelchWorkerCountByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 1 << 13
	xc := make([]complex128, n)
	xr := make([]float64, n)
	for i := range xc {
		xc[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		xr[i] = rng.NormFloat64()
	}
	cfg := DefaultWelch(512)
	encode := func(workers int) (cpx, re []byte) {
		prev := par.SetWorkers(workers)
		defer par.SetWorkers(prev)
		sc, err := WelchComplex(xc, 1e6, 1e9, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := WelchReal(xr, 1e6, cfg)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := testkit.MarshalCanonical(sc)
		if err != nil {
			t.Fatal(err)
		}
		br, err := testkit.MarshalCanonical(sr)
		if err != nil {
			t.Fatal(err)
		}
		return bc, br
	}
	c1, r1 := encode(1)
	for _, w := range []int{2, 8} {
		cw, rw := encode(w)
		if !bytes.Equal(c1, cw) {
			t.Errorf("WelchComplex: %d workers diverged from serial", w)
		}
		if !bytes.Equal(r1, rw) {
			t.Errorf("WelchReal: %d workers diverged from serial", w)
		}
	}
}

// TestWelchMatchesSerialReference pins the parallel implementation to the
// seed-era serial accumulation loop bit for bit.
func TestWelchMatchesSerialReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	n := 4096
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	cfg := DefaultWelch(256)
	got, err := WelchComplex(x, 2e6, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the historical serial loop, written out longhand.
	win := Window(cfg.Win, cfg.SegmentLen, cfg.Beta)
	var winPow float64
	for _, w := range win {
		winPow += w * w
	}
	step := cfg.SegmentLen - cfg.Overlap
	acc := make([]float64, cfg.SegmentLen)
	buf := make([]complex128, cfg.SegmentLen)
	segs := 0
	for start := 0; start+cfg.SegmentLen <= n; start += step {
		for i := 0; i < cfg.SegmentLen; i++ {
			buf[i] = x[start+i] * complex(win[i], 0)
		}
		spec := directFFT(buf, false)
		for i, v := range spec {
			re, im := real(v), imag(v)
			acc[i] += re*re + im*im
		}
		segs++
	}
	norm := 1 / (2e6 * winPow * float64(segs))
	for i := range acc {
		acc[i] *= norm
	}
	want := FFTShiftFloat(acc)
	for i := range want {
		if got.PSD[i] != want[i] {
			t.Fatalf("bin %d: parallel Welch %g != serial reference %g", i, got.PSD[i], want[i])
		}
	}
}

func TestDBHelpers(t *testing.T) {
	if PowerDB(100) != 20 || AmplitudeDB(10) != 20 {
		t.Error("dB conversions")
	}
	if PowerDB(0) != -400 || AmplitudeDB(-1) != -400 {
		t.Error("clamping")
	}
	if math.Abs(FromPowerDB(3)-1.9952623149688795) > 1e-12 {
		t.Error("FromPowerDB")
	}
	if math.Abs(FromAmplitudeDB(6)-1.9952623149688795) > 1e-12 {
		t.Error("FromAmplitudeDB")
	}
	if math.Abs(DBm(1)-30) > 1e-12 || DBm(0) != -400 {
		t.Error("DBm")
	}
}
