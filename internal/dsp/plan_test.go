package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// directFFT evaluates the transform with the retained sincos-per-butterfly
// oracle (fftRadix2 / bluestein), exactly as the seed-era FFT did.
func directFFT(x []complex128, inverse bool) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	if len(x) < 2 {
		return out
	}
	if IsPowerOfTwo(len(x)) {
		fftRadix2(out, inverse)
		return out
	}
	return bluestein(out, inverse)
}

// TestPlanMatchesDirectBitExact is the engine's core contract: a cached
// plan reproduces the direct evaluation bit for bit, for both directions,
// across radix-2 and Bluestein lengths. Golden vectors downstream rely on
// this — the plan migration must not move a single ulp.
func TestPlanMatchesDirectBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 60, 64, 100, 255, 256, 1000, 4096} {
		x := randComplex(n, rng)
		for _, inverse := range []bool{false, true} {
			want := directFFT(x, inverse)
			got := make([]complex128, n)
			p := cachedPlan(n, inverse)
			p.ExecuteInto(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: plan %v != direct %v",
						n, inverse, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPlanRepeatedExecuteReusesState runs one plan many times over and
// checks the scratch/cache reuse never contaminates results.
func TestPlanRepeatedExecuteReusesState(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{64, 100} { // radix-2 and Bluestein
		p := PlanFFT(n)
		x := randComplex(n, rng)
		want := directFFT(x, false)
		buf := make([]complex128, n)
		for rep := 0; rep < 5; rep++ {
			p.ExecuteInto(buf, x)
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("n=%d repeat %d bin %d: %v != %v", n, rep, i, buf[i], want[i])
				}
			}
		}
	}
}

func TestPlanExecuteInPlaceAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randComplex(128, rng)
	want := FFT(x)
	got := append([]complex128(nil), x...)
	PlanFFT(128).ExecuteInto(got, got) // dst aliases src
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased ExecuteInto differs at %d", i)
		}
	}
}

func TestPlanExecuteZeroAllocs(t *testing.T) {
	for _, n := range []int{1024, 1000} { // radix-2 and Bluestein
		p := PlanFFT(n)
		buf := make([]complex128, n)
		for i := range buf {
			buf[i] = complex(float64(i%7), float64(i%5))
		}
		p.Execute(buf) // warm the scratch pool
		allocs := testing.AllocsPerRun(20, func() {
			p.Execute(buf)
		})
		if allocs != 0 {
			t.Errorf("n=%d: Execute allocates %.1f objects/op in steady state, want 0", n, allocs)
		}
	}
}

func TestRealPlanZeroAllocs(t *testing.T) {
	n := 1024
	p := PlanRealFFT(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(0.2 * float64(i))
	}
	dst := make([]complex128, n)
	half := make([]complex128, n/2+1)
	p.Transform(dst, x)
	if a := testing.AllocsPerRun(20, func() { p.Transform(dst, x) }); a != 0 {
		t.Errorf("Transform allocates %.1f objects/op, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { p.HalfSpectrum(half, x) }); a != 0 {
		t.Errorf("HalfSpectrum allocates %.1f objects/op, want 0", a)
	}
}

// TestPlanCacheConcurrency hammers the shared cache from many goroutines
// requesting distinct and overlapping sizes while executing transforms —
// the race-detector CI step runs this to catch cache or scratch races.
func TestPlanCacheConcurrency(t *testing.T) {
	sizes := []int{8, 12, 64, 100, 128, 255, 256, 500, 1000, 1024}
	rng := rand.New(rand.NewSource(23))
	inputs := make(map[int][]complex128, len(sizes))
	wants := make(map[int][]complex128, len(sizes))
	for _, n := range sizes {
		inputs[n] = randComplex(n, rng)
		wants[n] = directFFT(inputs[n], false)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]complex128, 1024)
			for rep := 0; rep < 20; rep++ {
				n := sizes[(g+rep)%len(sizes)]
				p := PlanFFT(n)
				out := buf[:n]
				p.ExecuteInto(out, inputs[n])
				for i := range out {
					if out[i] != wants[n][i] {
						select {
						case errs <- "concurrent Execute produced a wrong value":
						default:
						}
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestPlanCacheReturnsSameInstance(t *testing.T) {
	if PlanFFT(512) != PlanFFT(512) {
		t.Error("PlanFFT(512) built two instances")
	}
	if PlanFFT(512) == PlanIFFT(512) {
		t.Error("forward and inverse plans must differ")
	}
	p := PlanFFT(384)
	if p.Len() != 384 || p.Inverse() {
		t.Error("plan metadata wrong")
	}
	if !PlanIFFT(384).Inverse() {
		t.Error("inverse plan metadata wrong")
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	p := PlanFFT(16)
	for _, fn := range []func(){
		func() { p.Execute(make([]complex128, 8)) },
		func() { p.ExecuteInto(make([]complex128, 16), make([]complex128, 8)) },
		func() { NewPlan(-1, false) },
		func() { PlanRealFFT(15) },
		func() { PlanRealFFT(0) },
		func() { PlanRealFFT(16).Transform(make([]complex128, 8), make([]float64, 16)) },
		func() { PlanRealFFT(16).HalfSpectrum(make([]complex128, 16), make([]float64, 16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestRealPlanMatchesComplexFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{2, 4, 6, 10, 48, 128, 1000, 1024} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		c := make([]complex128, n)
		for i, v := range x {
			c[i] = complex(v, 0)
		}
		want := FFT(c)
		got := RealFFT(x)
		scale := 1.0
		for _, v := range x {
			scale += math.Abs(v)
		}
		tol := 1e-12 * scale
		for k := range want {
			if d := cmplx.Abs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d bin %d: RealFFT %v vs FFT %v (diff %g)", n, k, got[k], want[k], d)
			}
		}
		half := RealFFTHalf(x)
		if len(half) != n/2+1 {
			t.Fatalf("n=%d: RealFFTHalf length %d, want %d", n, len(half), n/2+1)
		}
		for k := range half {
			if d := cmplx.Abs(half[k] - want[k]); d > tol {
				t.Fatalf("n=%d bin %d: RealFFTHalf %v vs FFT %v (diff %g)", n, k, half[k], want[k], d)
			}
		}
	}
}

func TestRealFFTOddAndEmpty(t *testing.T) {
	if RealFFT(nil) != nil || RealFFTHalf(nil) != nil {
		t.Error("empty input should give nil")
	}
	x := []float64{1.5}
	got := RealFFT(x)
	if len(got) != 1 || got[0] != complex(1.5, 0) {
		t.Errorf("length-1 RealFFT = %v", got)
	}
	h := RealFFTHalf([]float64{2, 1, -1}) // odd: falls back to the complex path
	if len(h) != 2 {
		t.Errorf("odd RealFFTHalf length %d, want 2", len(h))
	}
	if cmplx.Abs(h[0]-complex(2, 0)) > 1e-12 {
		t.Errorf("odd RealFFTHalf DC %v, want 2", h[0])
	}
}
