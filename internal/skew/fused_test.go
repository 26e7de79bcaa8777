package skew

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/pnbs"
)

// fusedCase is one configuration of the error-bound differential sweep:
// the fused reassociated cost must agree with the per-instant serial oracle
// to 1e-9 relative across bands (including an integer-positioned half-rate
// band where the s0 kernel term vanishes), filter lengths, and skews.
type fusedCase struct {
	name     string
	band     pnbs.Band
	halfTaps int
	d        float64 // true skew baked into the capture
	dHats    []float64
}

func fusedCases() []fusedCase {
	return []fusedCase{
		{
			name:     "paper/61taps",
			band:     pnbs.Band{FLow: 955e6, B: 90e6},
			halfTaps: 0, // default 30
			d:        180e-12,
			dHats:    []float64{60e-12, 180e-12, 181e-12, 350e-12},
		},
		{
			name:     "paper/short-filter",
			band:     pnbs.Band{FLow: 955e6, B: 90e6},
			halfTaps: 8,
			d:        250e-12,
			dHats:    []float64{100e-12, 250e-12, 400e-12},
		},
		{
			name: "low-band/29taps",
			band: pnbs.Band{FLow: 430e6, B: 60e6},
			// fc = 460 MHz: k+ B = 960 MHz vs k1 B1 = 900, k1+ B1 = 930.
			halfTaps: 14,
			d:        300e-12,
			dHats:    []float64{150e-12, 300e-12, 500e-12},
		},
		{
			name: "s0zero-halfrate/61taps",
			// fc = 980 MHz, B = 80 MHz: the half-rate band (960 MHz lower
			// edge, 40 MHz wide) is integer positioned (2 fl1/B1 = 48), so
			// the rate-B1 reconstructor runs the s0Zero fused branch.
			band:     pnbs.Band{FLow: 940e6, B: 80e6},
			halfTaps: 0,
			d:        180e-12,
			dHats:    []float64{90e-12, 180e-12, 300e-12},
		},
	}
}

func caseEvaluator(t *testing.T, fc fusedCase) *CostEvaluator {
	t.Helper()
	opt := pnbs.Options{HalfTaps: fc.halfTaps}
	bandB1 := HalfRateBand(fc.band)
	setB := idealSet(fc.band, 0, fc.d, 220)
	setB1 := idealSet(bandB1, -300e-9, fc.d, 130)
	// Deterministic capture noise keeps the cost floor honest: a noiseless
	// synthetic capture evaluated EXACTLY at its true skew collapses the
	// cost ten orders of magnitude below any physical run (pure
	// reconstruction-truncation residue), where relative comparison is
	// meaningless. Real captures are ADC-noise floored; model that.
	rng := rand.New(rand.NewSource(11))
	for _, ch := range [][]float64{setB.Ch0, setB.Ch1, setB1.Ch0, setB1.Ch1} {
		for i := range ch {
			ch[i] += 0.01 * (2*rng.Float64() - 1)
		}
	}
	lo, hi, err := EvalWindow(setB, setB1, opt)
	if err != nil {
		t.Fatal(err)
	}
	times := RandomTimes(lo, hi, 120, 7)
	ce, err := NewCostEvaluator(setB, setB1, times, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ce
}

// TestCostFusedErrorBoundSweep is the table-driven differential guarantee:
// |CostFused − costSerial| / costSerial <= 1e-9 across band positions,
// filter lengths and candidate skews, including candidates at the cost
// minimum (the worst cancellation case) and an s0Zero half-rate band.
func TestCostFusedErrorBoundSweep(t *testing.T) {
	for _, fc := range fusedCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			ce := caseEvaluator(t, fc)
			for _, dHat := range fc.dHats {
				got, err := ce.Cost(dHat)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := ce.costSerial(dHat)
				if err != nil {
					t.Fatal(err)
				}
				if rd := relDiff(got, ref); rd > 1e-9 {
					t.Fatalf("dHat=%g: fused %.17g vs serial %.17g (rel %g)",
						dHat, got, ref, rd)
				}
			}
		})
	}
}

// FuzzCostFusedVsSerial fuzzes the fused-vs-serial agreement over random
// captures, candidate delays, and filter lengths: for every candidate both
// paths accept, the reassociated fused cost must stay within 1e-9 relative
// of the per-instant serial oracle. Random (noise-like) captures exercise
// the reassociation error without the structure of a true skew; the seeded
// table rows cover the paper geometry and a near-minimum candidate.
func FuzzCostFusedVsSerial(f *testing.F) {
	f.Add(0.36, int64(1), uint8(6))
	f.Add(0.5, int64(2), uint8(12))
	f.Add(0.12, int64(3), uint8(30))
	f.Add(0.9, int64(4), uint8(6))
	f.Add(0.63, int64(5), uint8(9))
	f.Fuzz(func(t *testing.T, dFrac float64, seed int64, taps uint8) {
		if math.IsNaN(dFrac) || math.IsInf(dFrac, 0) {
			t.Skip()
		}
		bandB, bandB1 := pnbs.Band{FLow: 955e6, B: 90e6}, HalfRateBand(pnbs.Band{FLow: 955e6, B: 90e6})
		m := MUpper(bandB, bandB1)
		// Fold the fuzzed fraction into ]0, m[ away from the endpoints.
		dHat := (0.02 + 0.96*math.Abs(math.Remainder(dFrac, 1))) * m
		halfTaps := 4 + int(taps)%28
		opt := pnbs.Options{HalfTaps: halfTaps}

		rng := rand.New(rand.NewSource(seed))
		mk := func(band pnbs.Band, t0 float64, n int) SampleSet {
			ch0 := make([]float64, n)
			ch1 := make([]float64, n)
			for i := range ch0 {
				ch0[i] = 2*rng.Float64() - 1
				ch1[i] = 2*rng.Float64() - 1
			}
			return SampleSet{Band: band, T0: t0, Ch0: ch0, Ch1: ch1}
		}
		setB := mk(bandB, 0, 160)
		setB1 := mk(bandB1, -300e-9, 100)
		lo, hi, err := EvalWindow(setB, setB1, opt)
		if err != nil {
			t.Skip()
		}
		times := RandomTimes(lo, hi, 50, seed)
		ce, err := NewCostEvaluator(setB, setB1, times, opt)
		if err != nil {
			t.Skip()
		}
		got, gotErr := ce.Cost(dHat)
		ref, refErr := ce.costSerial(dHat)
		if (gotErr == nil) != (refErr == nil) {
			t.Fatalf("feasibility disagreement at dHat=%g: fused err %v, serial err %v",
				dHat, gotErr, refErr)
		}
		if gotErr != nil {
			return
		}
		if rd := relDiff(got, ref); rd > 1e-9 {
			t.Fatalf("dHat=%g halfTaps=%d: fused %.17g vs serial %.17g (rel %g)",
				dHat, halfTaps, got, ref, rd)
		}
	})
}

// TestCostFusedBitIdenticalAcrossWorkers pins the worker-count-invariance
// half of the fused path's contract: Cost chunks the instants into
// FIXED-size blocks (never derived from the pool width) and folds the
// per-chunk partials serially in chunk order, so the value at workers 2 and
// 8 must equal the single-worker value bit for bit.
func TestCostFusedBitIdenticalAcrossWorkers(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	dHats := []float64{50e-12, 120e-12, 180e-12, 240e-12, 400e-12}
	for _, dHat := range dHats {
		prev := par.SetWorkers(1)
		ref, err := ce.Cost(dHat)
		par.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 8} {
			prev := par.SetWorkers(w)
			got, err := ce.Cost(dHat)
			par.SetWorkers(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref {
				t.Fatalf("workers=%d dHat=%g: fused Cost %.17g != single-worker %.17g",
					w, dHat, got, ref)
			}
		}
	}
}

// TestCostFusedMatchesSerialOracle is the tolerance half of the contract:
// the reassociated fused value must agree with the rebuild-everything
// per-instant serial oracle to 1e-9 relative (the documented estimate-stage
// golden tolerance; in practice the agreement is ~1e-12).
func TestCostFusedMatchesSerialOracle(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	for _, dHat := range []float64{50e-12, 120e-12, 180e-12, 240e-12, 400e-12} {
		got, err := ce.Cost(dHat)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ce.costSerial(dHat)
		if err != nil {
			t.Fatal(err)
		}
		if rd := relDiff(got, ref); rd > 1e-9 {
			t.Fatalf("dHat=%g: fused %.17g vs serial oracle %.17g (rel %g)", dHat, got, ref, rd)
		}
	}
}

// TestCostFusedPrepSurvivesRetune drives one pooled worker through many
// candidate delays: the first evaluation builds the contracted tables,
// every later one must reuse them through Retune (the tables are delay
// independent). Bit-equality with a FRESH evaluator's first evaluation at
// the same delay proves the reuse is exact — the retuned tables are the
// very floats a from-scratch build produces — and the serial oracle bounds
// the absolute accuracy at each stop.
func TestCostFusedPrepSurvivesRetune(t *testing.T) {
	ce := paperEvaluator(t, 180e-12)
	prev := par.SetWorkers(1)
	defer par.SetWorkers(prev)
	for _, dHat := range []float64{100e-12, 180e-12, 260e-12, 180e-12, 100e-12} {
		got, err := ce.Cost(dHat) // pooled: same worker, Retune between calls
		if err != nil {
			t.Fatal(err)
		}
		fresh := paperEvaluator(t, 180e-12)
		want, err := fresh.Cost(dHat) // fresh evaluator: tables built from scratch
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dHat=%g: retuned worker %.17g != fresh build %.17g", dHat, got, want)
		}
		ref, err := ce.costSerial(dHat)
		if err != nil {
			t.Fatal(err)
		}
		if rd := relDiff(got, ref); rd > 1e-9 {
			t.Fatalf("dHat=%g: retuned %.17g vs serial oracle %.17g (rel %g)", dHat, got, ref, rd)
		}
	}
}
