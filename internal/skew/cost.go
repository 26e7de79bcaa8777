// Package skew implements the paper's time-skew estimation layer: the
// dual-rate self-referential cost function of Eqs. (7)-(8) with the
// uniqueness conditions of Eq. (9), the normalized variable-step LMS
// identification of Algorithm 1, and the known-sinusoid baseline adapted
// from Jamal et al. (TCAS-I 2004, the paper's reference [14]).
package skew

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pnbs"
)

// Hot-loop instruments, hoisted to package level so an increment is one
// atomic add and the registry map is never touched per evaluation. The
// evals counter is the paper's "computational effort" axis measured live:
// after one BIST run it equals LMSResult.CostEvals exactly.
var (
	mCostEvals  = obs.C("skew.cost.evals")
	mCostErrors = obs.C("skew.cost.errors")
	mPoolGets   = obs.C("skew.cost.pool.gets")
	mPoolNews   = obs.C("skew.cost.pool.news")
	mRetunes    = obs.C("skew.cost.retunes")
	// mMemoHits counts descent evaluations served from the LMS candidate
	// memo: logical evaluations that did no kernel work, so pool gets +
	// news + memo hits = cost evals exactly.
	mMemoHits = obs.C("skew.lms.memo.hits")
)

// SampleSet is one nonuniform capture expressed for reconstruction:
// Ch0[n] = f(T0 + n/Band.B), Ch1[n] = f(T0 + n/Band.B + D) with the same
// physical (unknown) D for every set.
type SampleSet struct {
	// Band is the bandpass support assumed for reconstruction at this rate.
	Band pnbs.Band
	// T0 is the nominal instant of Ch0's first sample.
	T0 float64
	// Ch0 and Ch1 are the captured channel values.
	Ch0, Ch1 []float64
}

// HalfRateBand returns the band to assume when reconstructing from the
// half-rate capture: same centre, half the width. The paper's configuration
// (fc = 1 GHz, B = 90 MHz -> B1 = 45 MHz) keeps the narrowband test signal
// inside both supports.
func HalfRateBand(b pnbs.Band) pnbs.Band {
	return pnbs.Band{FLow: b.Fc() - b.B/4, B: b.B / 2}
}

// MUpper returns m, the first delay at which the dual-rate cost function is
// undefined: m = min{ 1/(k+ B), 1/(k1+ B1) } (Section IV-A). The LMS search
// is restricted to ]0, m[.
func MUpper(bandB, bandB1 pnbs.Band) float64 {
	mB := 1 / (float64(bandB.KPlus()) * bandB.B)
	mB1 := 1 / (float64(bandB1.KPlus()) * bandB1.B)
	return math.Min(mB, mB1)
}

// CheckUniqueness verifies the paper's Eq. (9) conditions under which the
// cost function has a single minimum in ]0, m[ at D-hat = D:
// k+ B != k1 B1 and k+ B != k1+ B1.
func CheckUniqueness(bandB, bandB1 pnbs.Band) error {
	if bandB1.B >= bandB.B {
		return fmt.Errorf("skew: need T < T1, i.e. B1 = %g < B = %g", bandB1.B, bandB.B)
	}
	kpB := float64(bandB.KPlus()) * bandB.B
	k1B1 := float64(bandB1.K()) * bandB1.B
	k1pB1 := float64(bandB1.KPlus()) * bandB1.B
	const tol = 1e-6
	if math.Abs(kpB-k1B1) < tol*kpB {
		return fmt.Errorf("skew: Eq. (9a) violated: k+ B = k1 B1 = %g", kpB)
	}
	if math.Abs(kpB-k1pB1) < tol*kpB {
		return fmt.Errorf("skew: Eq. (9b) violated: k+ B = k1+ B1 = %g", kpB)
	}
	return nil
}

// CostEvaluator computes the Eq. (7) objective: the mean squared
// disagreement between the rate-B and rate-B1 reconstructions of the same
// waveform, both evaluated with the SAME candidate delay D-hat. At
// D-hat = D both reconstructions converge to f(t) and the cost collapses to
// the noise floor; anywhere else they err differently and the cost rises.
// No knowledge of the transmitted waveform is needed.
type CostEvaluator struct {
	setB  SampleSet
	setB1 SampleSet
	times []float64
	opt   pnbs.Options
	// workers recycles reconstructor pairs (plus per-chunk partial storage)
	// across Cost calls: a candidate delay is swapped in with Retune
	// instead of rebuilding kernels and phasor tables, so the LMS hot loop
	// runs allocation-free. A pool rather than a single pair keeps Cost
	// safe to call from concurrent goroutines (parallel sweep points,
	// parallel LMS traces) without serialising them.
	workers sync.Pool // *costWorker
	// protoB/protoB1 are the template reconstructor pair every fresh pool
	// worker is cloned from. Clones share the delay-independent prepared
	// tables (pnbs.Reconstructor.Clone), so the fused-path contraction is
	// built once per capture and amortized across all candidates and all
	// concurrent workers.
	protoMu         sync.Mutex
	protoB, protoB1 *pnbs.Reconstructor
}

// costChunk is the fixed instant-chunk size of the fused cost fold. It is a
// constant — never derived from the worker count — so the per-chunk partial
// sums and their chunk-order fold are bit-identical at any pool size.
const costChunk = 16

// costWorker is one reusable evaluation context: a retunable reconstructor
// pair plus the per-chunk partials of the fused residual fold.
type costWorker struct {
	rB, rB1  *pnbs.Reconstructor
	partials []float64
}

// worker returns a pooled evaluation context retuned to dHat, cloning a
// fresh one from the template pair only when the pool is empty.
func (c *CostEvaluator) worker(dHat float64) (*costWorker, error) {
	if v := c.workers.Get(); v != nil {
		w := v.(*costWorker)
		mPoolGets.Inc()
		mRetunes.Add(2)
		if err := w.rB.Retune(dHat); err != nil {
			c.workers.Put(w)
			return nil, err
		}
		if err := w.rB1.Retune(dHat); err != nil {
			c.workers.Put(w)
			return nil, err
		}
		return w, nil
	}
	mPoolNews.Inc()
	pB, pB1, err := c.proto(dHat)
	if err != nil {
		return nil, err
	}
	rB, err := pB.Clone(dHat)
	if err != nil {
		return nil, err
	}
	rB1, err := pB1.Clone(dHat)
	if err != nil {
		return nil, err
	}
	return &costWorker{rB: rB, rB1: rB1}, nil
}

// proto returns the template reconstructor pair, building it on first use.
func (c *CostEvaluator) proto(dHat float64) (*pnbs.Reconstructor, *pnbs.Reconstructor, error) {
	c.protoMu.Lock()
	defer c.protoMu.Unlock()
	if c.protoB == nil {
		rB, err := pnbs.NewReconstructor(c.setB.Band, dHat, c.setB.T0, c.setB.Ch0, c.setB.Ch1, c.opt)
		if err != nil {
			return nil, nil, err
		}
		rB1, err := pnbs.NewReconstructor(c.setB1.Band, dHat, c.setB1.T0, c.setB1.Ch0, c.setB1.Ch1, c.opt)
		if err != nil {
			return nil, nil, err
		}
		c.protoB, c.protoB1 = rB, rB1
	}
	return c.protoB, c.protoB1, nil
}

// NewCostEvaluator validates the two captures and the evaluation instants.
// The instants must lie inside the valid reconstruction range of both sets;
// use EvalWindow/RandomTimes to generate them.
func NewCostEvaluator(setB, setB1 SampleSet, times []float64, opt pnbs.Options) (*CostEvaluator, error) {
	if err := CheckUniqueness(setB.Band, setB1.Band); err != nil {
		return nil, err
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("skew: no evaluation instants")
	}
	if len(setB.Ch0) != len(setB.Ch1) || len(setB1.Ch0) != len(setB1.Ch1) {
		return nil, fmt.Errorf("skew: channel length mismatch")
	}
	return &CostEvaluator{setB: setB, setB1: setB1, times: times, opt: opt}, nil
}

// Times returns the evaluation instants.
func (c *CostEvaluator) Times() []float64 { return c.times }

// M returns the upper limit of the searchable delay interval.
func (c *CostEvaluator) M() float64 { return MUpper(c.setB.Band, c.setB1.Band) }

// Cost evaluates the Eq. (7) objective at the candidate delay dHat through
// the fused reassociated kernel (pnbs.CostFused): both reconstructors share
// delay-independent contracted tables (built once per capture, surviving
// Retune and shared across pooled workers via Clone), fixed-size instant
// chunks fan out over the par pool, and the per-chunk residual partials are
// folded serially in chunk order. The chunk boundaries never depend on the
// worker count, so the result is bit-identical at any pool size; against
// the per-instant serial oracle (costSerial) the fused value agrees to
// <= 1e-9 relative — reassociated, not bit-identical (the documented
// estimate-stage tolerance contract). Cost is safe for concurrent use.
func (c *CostEvaluator) Cost(dHat float64) (float64, error) {
	mCostEvals.Inc()
	w, err := c.worker(dHat)
	if err != nil {
		mCostErrors.Inc()
		return 0, err
	}
	defer c.workers.Put(w)
	n := len(c.times)
	partials := w.chunkStorage(n)
	w.rB.PrepareFused(c.times)
	w.rB1.PrepareFused(c.times)
	par.ForChunks(n, costChunk, func(lo, hi int) {
		partials[lo/costChunk] = pnbs.CostFused(w.rB, w.rB1, c.times, lo, hi)
	})
	return foldChunks(partials, n), nil
}

// chunkStorage returns the worker's per-chunk partial buffer sized for n
// instants.
func (w *costWorker) chunkStorage(n int) []float64 {
	nc := (n + costChunk - 1) / costChunk
	if cap(w.partials) < nc {
		w.partials = make([]float64, nc)
	}
	return w.partials[:nc]
}

// foldChunks folds the per-chunk partials serially in chunk order — the one
// fixed association the worker-count-invariance contract pins.
func foldChunks(partials []float64, n int) float64 {
	acc := 0.0
	for _, p := range partials {
		acc += p
	}
	return acc / float64(n)
}

// costSerial is the single-threaded, rebuild-everything, per-instant At
// reference implementation of Cost (the seed code path), kept as the
// oracle for the differential tests: the fused reassociated path must agree
// with it to <= 1e-9 relative (the estimate-stage tolerance contract), and
// must itself be bit-identical at any worker count.
func (c *CostEvaluator) costSerial(dHat float64) (float64, error) {
	rB, err := pnbs.NewReconstructor(c.setB.Band, dHat, c.setB.T0, c.setB.Ch0, c.setB.Ch1, c.opt)
	if err != nil {
		return 0, err
	}
	rB1, err := pnbs.NewReconstructor(c.setB1.Band, dHat, c.setB1.T0, c.setB1.Ch0, c.setB1.Ch1, c.opt)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	for _, tv := range c.times {
		d := rB.At(tv) - rB1.At(tv)
		acc += d * d
	}
	return acc / float64(len(c.times)), nil
}

// EvalWindow returns the time interval over which both captures support
// full-filter reconstruction (intersection of the two valid ranges).
func EvalWindow(setB, setB1 SampleSet, opt pnbs.Options) (lo, hi float64, err error) {
	rB, err := pnbs.NewReconstructor(setB.Band, setB.Band.OptimalD(), setB.T0, setB.Ch0, setB.Ch1, opt)
	if err != nil {
		return 0, 0, err
	}
	rB1, err := pnbs.NewReconstructor(setB1.Band, setB1.Band.OptimalD(), setB1.T0, setB1.Ch0, setB1.Ch1, opt)
	if err != nil {
		return 0, 0, err
	}
	lo0, hi0 := rB.ValidRange()
	lo1, hi1 := rB1.ValidRange()
	lo = math.Max(lo0, lo1)
	hi = math.Min(hi0, hi1)
	if lo >= hi {
		return 0, 0, fmt.Errorf("skew: captures share no valid reconstruction window")
	}
	return lo, hi, nil
}

// RandomTimes draws n uniform random instants from [lo, hi] with a seeded
// generator (the paper uses N = 300 random values in [470 ns, 1700 ns]).
func RandomTimes(lo, hi float64, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*rng.Float64()
	}
	return out
}
