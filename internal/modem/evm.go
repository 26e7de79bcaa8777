package modem

import (
	"fmt"
	"math"
	"math/cmplx"
)

// EVMResult summarises an error-vector-magnitude measurement.
type EVMResult struct {
	// RMSPercent is the RMS EVM in percent of the reference RMS.
	RMSPercent float64
	// PeakPercent is the worst-symbol EVM in percent.
	PeakPercent float64
	// DB is the RMS EVM expressed in dB (20 log10(rms/100)).
	DB float64
}

// EVM computes the error vector magnitude of measured symbols against the
// ideal reference sequence.
func EVM(measured, reference []complex128) (EVMResult, error) {
	if len(measured) != len(reference) {
		return EVMResult{}, fmt.Errorf("modem: EVM: %d measured vs %d reference symbols",
			len(measured), len(reference))
	}
	if len(measured) == 0 {
		return EVMResult{}, fmt.Errorf("modem: EVM: empty input")
	}
	var errPow, refPow, peak float64
	for i := range measured {
		e := measured[i] - reference[i]
		ep := real(e)*real(e) + imag(e)*imag(e)
		errPow += ep
		refPow += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
		if ep > peak {
			peak = ep
		}
	}
	if refPow == 0 {
		return EVMResult{}, fmt.Errorf("modem: EVM: zero reference power")
	}
	n := float64(len(measured))
	rms := math.Sqrt(errPow/n) / math.Sqrt(refPow/n)
	pk := math.Sqrt(peak) / math.Sqrt(refPow/n)
	db := -400.0
	if rms > 0 {
		db = 20 * math.Log10(rms)
	}
	return EVMResult{RMSPercent: 100 * rms, PeakPercent: 100 * pk, DB: db}, nil
}

// NormalizeScaleAndPhase removes a common complex gain from measured symbols
// by least squares against the reference (the standard EVM pre-correction):
// g = sum(meas * conj(ref)) / sum(|ref|^2), returns measured/g.
func NormalizeScaleAndPhase(measured, reference []complex128) ([]complex128, error) {
	if len(measured) != len(reference) || len(measured) == 0 {
		return nil, fmt.Errorf("modem: normalize: bad lengths %d, %d", len(measured), len(reference))
	}
	var num complex128
	var den float64
	for i := range measured {
		num += measured[i] * cmplx.Conj(reference[i])
		den += real(reference[i])*real(reference[i]) + imag(reference[i])*imag(reference[i])
	}
	if den == 0 || num == 0 {
		return nil, fmt.Errorf("modem: normalize: degenerate inputs")
	}
	g := num / complex(den, 0)
	out := make([]complex128, len(measured))
	for i := range out {
		out[i] = measured[i] / g
	}
	return out, nil
}
