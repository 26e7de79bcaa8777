package dsp

import (
	"math"
	"testing"
)

func TestPAPRAnalysis(t *testing.T) {
	// Constant envelope: PAPR = 0 dB.
	n := 4096
	cw := make([]complex128, n)
	for i := range cw {
		s, c := math.Sincos(0.1 * float64(i))
		cw[i] = complex(c, s)
	}
	r, err := PAPR(cw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PAPRdB) > 0.01 {
		t.Errorf("CW PAPR %g dB", r.PAPRdB)
	}
	for _, v := range r.CCDFdB {
		if math.Abs(v) > 0.01 {
			t.Errorf("CW CCDF %g dB", v)
		}
	}
	// Two equal tones: peak power 4x average of one... PAPR = 3 dB.
	two := make([]complex128, n)
	// Beat frequency commensurate with the record so the average power is
	// exactly 2 and the peak (amplitude 2) is hit.
	delta := 2 * math.Pi * 2 / float64(n)
	for i := range two {
		s1, c1 := math.Sincos(0.1 * float64(i))
		s2, c2 := math.Sincos((0.1 + delta) * float64(i))
		two[i] = complex(c1+c2, s1+s2) // amplitude beats between 0 and 2
	}
	r2, err := PAPR(two, []float64{1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.PAPRdB-3) > 0.3 {
		t.Errorf("two-tone PAPR %g dB, want ~3", r2.PAPRdB)
	}
}

func TestPAPRValidation(t *testing.T) {
	if _, err := PAPR(make([]complex128, 4), nil); err == nil {
		t.Error("too short must fail")
	}
	if _, err := PAPR(make([]complex128, 64), nil); err == nil {
		t.Error("zero record must fail")
	}
	x := make([]complex128, 64)
	x[0] = 1
	if _, err := PAPR(x, []float64{2}); err == nil {
		t.Error("bad probability must fail")
	}
}
