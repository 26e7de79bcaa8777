package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// Metamorphic properties of the transform substrate across randomized
// lengths, deliberately including non-powers of two so the Bluestein path
// sits under the same net as radix-2.

var metamorphicLengths = []int{5, 8, 12, 16, 27, 31, 64, 100, 128}

func randVec(n int, rng *rand.Rand) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestFFTParsevalAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range metamorphicLengths {
		x := randVec(n, rng)
		var pt, pf float64
		for _, v := range x {
			pt += real(v)*real(v) + imag(v)*imag(v)
		}
		for _, v := range FFT(x) {
			pf += real(v)*real(v) + imag(v)*imag(v)
		}
		pf /= float64(n)
		if math.Abs(pt-pf) > 1e-9*(pt+1) {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, pt, pf)
		}
	}
}

func TestFFTLinearityAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for _, n := range metamorphicLengths {
		a := randVec(n, rng)
		b := randVec(n, rng)
		alpha := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a[i] + alpha*b[i]
		}
		fa, fb, fs := FFT(a), FFT(b), FFT(sum)
		for i := range fs {
			if cmplx.Abs(fs[i]-(fa[i]+alpha*fb[i])) > 1e-8*float64(n) {
				t.Errorf("n=%d bin %d: linearity violated", n, i)
				break
			}
		}
	}
}

// TestFFTTimeShiftTheorem: circularly delaying x by s multiplies bin k by
// exp(-i 2 pi k s / N).
func TestFFTTimeShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range metamorphicLengths {
		x := randVec(n, rng)
		s := 1 + rng.Intn(n-1)
		shifted := make([]complex128, n)
		for i := range shifted {
			shifted[i] = x[((i-s)%n+n)%n]
		}
		fx, fs := FFT(x), FFT(shifted)
		for k := range fx {
			phi := -2 * math.Pi * float64(k) * float64(s) / float64(n)
			sn, cs := math.Sincos(phi)
			want := fx[k] * complex(cs, sn)
			if cmplx.Abs(fs[k]-want) > 1e-8*(1+cmplx.Abs(fx[k]))*float64(n) {
				t.Errorf("n=%d shift=%d bin %d: %v, want %v", n, s, k, fs[k], want)
				break
			}
		}
	}
}

// TestFFTConjugateSymmetryAllLengths: a real input spectrum satisfies
// X[(N-k) mod N] = conj(X[k]) on both transform paths.
func TestFFTConjugateSymmetryAllLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, n := range metamorphicLengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		X := RealFFT(x)
		for k := range X {
			mirror := X[(n-k)%n]
			if cmplx.Abs(mirror-cmplx.Conj(X[k])) > 1e-8*(1+cmplx.Abs(X[k]))*float64(n) {
				t.Errorf("n=%d bin %d: conjugate symmetry violated", n, k)
				break
			}
		}
	}
}
