package pnbs

import "math"

// This file implements the reassociated fused evaluation path of the Eq. (6)
// reconstructor: the estimate-stage hot kernel behind skew.Cost. Unlike
// At (the bit-pinned per-instant path and its oracle), the fused path is
// allowed to reassociate — its contract is numerical equivalence within
// tolerance (|fused − serial|/serial <= 1e-9 on the cost), the same contract
// real-time TIADC correction hardware applies when it pipelines these FIR
// folds. That freedom is what lets the prompt-channel tap fold collapse to
// O(1) work per instant per candidate delay:
//
// Write the kernel phase terms as cos(a·dt − φ) = cos(a·dt)cos φ +
// sin(a·dt)sin φ. For the prompt channel the offsets dt0 = t − nT are
// delay-independent, so each instant's whole tap fold contracts to four
// scalars built once at prepare time,
//
//	pc = Σ_j ch0[j]·w(dt0_j)·(cos(a·dt0_j) − cos(b·dt0_j))/dt0_j
//	ps = Σ_j ch0[j]·w(dt0_j)·(sin(a·dt0_j) − sin(b·dt0_j))/dt0_j
//
// per phase pair (a0,b0) and (a1,b1), and the per-candidate evaluation is
// just (pc·cot φ + ps)/(2πB) — only cot φ0 and cot φ1 depend on the delay,
// the same two-phase observation the kernel's Retune exploits. Taps with
// |dt0| below the dsp.DiffCosOverT Taylor threshold contribute their series
// limit (pc term dt·(b²−a²)/2, ps term (a−b)), which is linear in cot φ in
// exactly the same way, so the contraction survives the removable
// singularity.
//
// The delayed channel's offsets dt1 = nT + D − t move with the candidate, so
// it keeps a per-tap loop — but with half of At's phasor state (the four
// prompt phasors are gone) and the two kernel divisions merged into
// one: s(dt1) = ((ReA0 − ReB0)·inv0 + (ReA1 − ReB1)·inv1)/dt1 with
// inv = 1/(2πB·sin φ) hoisted per candidate.
//
// CostFused fuses the residual-power fold of skew.Cost into the same pass:
// both reconstructions of an instant are produced back to back and only the
// squared difference is accumulated, so samples never round-trip through
// memory. Callers obtain worker-count-invariant totals by evaluating
// fixed-size chunks (par.ForChunks) and folding the per-chunk partials in
// chunk order — blocked summation, which also bounds rounding growth.

// fusedTaylorEps matches the |t| threshold below which dsp.DiffCosOverT
// switches to its series expansion; the prepared tables use the same branch
// point so the fused values track the serial kernel across it.
const fusedTaylorEps = 1e-13

// fusedRow is the per-instant state of the fused path: the prompt-channel
// fold contracted to four delay-independent scalars plus the delayed-channel
// tap-span geometry.
type fusedRow struct {
	// nLo is the first capture index of the tap span (clamped like At);
	// cnt is the tap count, zero for instants outside the capture.
	nLo, cnt int32
	// dtdStart is t0 + nLo·T − t: the first delayed-channel offset at eval
	// time is dt1 = dtdStart + D, associating the delay in last so the
	// prepared part stays delay-independent.
	dtdStart float64
	// pc0/ps0 and pc1/ps1 are the contracted prompt-channel folds for the
	// (a0,b0) and (a1,b1) phase pairs.
	pc0, ps0, pc1, ps1 float64
}

// fusedPrep is the immutable prepared form of one instant block for the
// fused path. It is delay-independent, so it survives Retune and is shared
// across every candidate delay (and, via Reconstructor.Clone, across pooled
// evaluator workers).
type fusedPrep struct {
	ts   []float64
	rows []fusedRow
}

// matches reports whether the prepared tables cover exactly these instants
// (value comparison, so an equal block in fresh backing storage still hits
// the cache and a mutated slice misses it).
func (p *fusedPrep) matches(ts []float64) bool {
	if p == nil || len(ts) != len(p.ts) {
		return false
	}
	for i, t := range ts {
		if t != p.ts[i] {
			return false
		}
	}
	return true
}

// buildFusedPrep contracts the prompt-channel tap folds. The tap geometry
// (n0, clamping, dt0 accumulation by repeated subtraction) mirrors At; the
// trig is evaluated by direct Sincos per tap — prepare runs once per
// (capture, instants) and its accuracy feeds every candidate, where the
// cost fold's cancellation amplifies prep error by ~1e6: a phasor
// recurrence here (tried) costs ~4e-9 on the cost and busts the 1e-9
// oracle contract.
func (r *Reconstructor) buildFusedPrep(ts []float64) *fusedPrep {
	h := r.opt.HalfTaps
	k := r.kern
	p := &fusedPrep{
		ts:   append([]float64(nil), ts...),
		rows: make([]fusedRow, len(ts)),
	}
	for i, t := range ts {
		row := &p.rows[i]
		n0 := int(math.Round((t - r.t0) / r.tStep))
		nLo := n0 - h
		if nLo < 0 {
			nLo = 0
		}
		nHi := n0 + h
		if nHi > len(r.ch0)-1 {
			nHi = len(r.ch0) - 1
		}
		if nLo > nHi {
			continue // out-of-capture instant: the fused value is 0
		}
		row.nLo = int32(nLo)
		row.cnt = int32(nHi - nLo + 1)
		row.dtdStart = r.t0 + float64(nLo)*r.tStep - t
		dt0 := t - r.t0 - float64(nLo)*r.tStep
		for n := nLo; n <= nHi; n++ {
			if w := r.window(dt0); w != 0 {
				cw := r.ch0[n] * w
				if math.Abs(dt0) < fusedTaylorEps {
					// Series limit of (cos(a·dt)−cos(b·dt))/dt and
					// (sin(a·dt)−sin(b·dt))/dt, matching DiffCosOverT's
					// expansion to the same order.
					row.pc0 += cw * dt0 * 0.5 * (k.b0*k.b0 - k.a0*k.a0)
					row.ps0 += cw * (k.a0 - k.b0)
					row.pc1 += cw * dt0 * 0.5 * (k.b1*k.b1 - k.a1*k.a1)
					row.ps1 += cw * (k.a1 - k.b1)
				} else {
					inv := cw / dt0
					sA, cA := math.Sincos(k.a0 * dt0)
					sB, cB := math.Sincos(k.b0 * dt0)
					row.pc0 += (cA - cB) * inv
					row.ps0 += (sA - sB) * inv
					sA, cA = math.Sincos(k.a1 * dt0)
					sB, cB = math.Sincos(k.b1 * dt0)
					row.pc1 += (cA - cB) * inv
					row.ps1 += (sA - sB) * inv
				}
			}
			dt0 -= r.tStep
		}
	}
	return p
}

// PrepareFused ensures the fused delay-independent tables for this instant
// block are built, reusing the cached tables when the instants are
// value-equal to the previous block. The cache slot is shared with every
// Clone of this reconstructor, so pooled evaluator workers build the tables
// once between them; a racing double-build is a pure function of the same
// inputs and therefore publishes identical tables.
func (r *Reconstructor) PrepareFused(ts []float64) {
	if r.fused.Load().matches(ts) {
		return
	}
	r.fused.Store(r.buildFusedPrep(ts))
}

// fusedEval is the per-candidate evaluation context: the prepared tables
// plus the handful of delay-dependent scalars hoisted out of the instant
// loop.
type fusedEval struct {
	r       *Reconstructor
	p       *fusedPrep
	d       float64
	inv2piB float64
	// cot0/cot1 contract the prompt-channel tables; inv0/inv1 merge the
	// delayed-channel kernel denominators into one division per tap.
	cot0, cot1 float64
	inv0, inv1 float64
	// winScale/lutCoef/lutInv are the taper lookup hoisted out of
	// Reconstructor.window: the window is the hottest leaf of the tap loop
	// and neither window nor windowLUT.at is inlinable, so the tap loop
	// evaluates the precomputed per-segment cubic coefficients directly.
	// lutCoef is nil for the rectangular (no-taper) window.
	winScale float64
	lutCoef  []float64
	lutInv   float64
}

// fusedEval snapshots the prepared tables (building them if the cached
// block does not match) and hoists the candidate-delay scalars.
func (r *Reconstructor) fusedEvalCtx(ts []float64) fusedEval {
	p := r.fused.Load()
	if !p.matches(ts) {
		p = r.buildFusedPrep(ts)
		r.fused.Store(p)
	}
	k := r.kern
	e := fusedEval{r: r, p: p, d: k.d, inv2piB: 1 / (2 * math.Pi * k.band.B)}
	e.cot1 = math.Cos(k.phi1) / k.sin1
	e.inv1 = e.inv2piB / k.sin1
	if !k.s0Zero {
		e.cot0 = math.Cos(k.phi0) / k.sin0
		e.inv0 = e.inv2piB / k.sin0
	}
	e.winScale = r.winScale
	if r.win != nil {
		e.lutCoef = r.win.coef
		e.lutInv = r.win.inv
	}
	return e
}

// at evaluates instant i of the prepared block for the current candidate.
func (e *fusedEval) at(i int) float64 {
	row := &e.p.rows[i]
	if row.cnt == 0 {
		return 0
	}
	r := e.r
	k := r.kern
	// Prompt channel: the whole tap fold is the prepared contraction against
	// the two delay-dependent cotangents.
	var acc float64
	if k.s0Zero {
		acc = (row.pc1*e.cot1 + row.ps1) * e.inv2piB
	} else {
		acc = ((row.pc0*e.cot0 + row.ps0) + (row.pc1*e.cot1 + row.ps1)) * e.inv2piB
	}
	// Delayed channel: only the REAL parts of At's phasors are ever
	// consumed here, so the per-tap state is four Chebyshev cosine
	// recurrences (cos(θ+δ) = 2 cos δ · cos θ − cos(θ−δ)) — one multiply
	// per angle per tap in place of a complex multiply — with the two
	// kernel divisions merged. The taper is the precomputed per-segment
	// cubic on the hoisted fusedEval locals (window/windowLUT.at are not
	// inlinable), and the loop is split on s0Zero so the
	// integer-positioned case never touches the (a0,b0) pair it would
	// discard. The j = 0 seeds are the same Sincos arguments the serial
	// kernel evaluates — a factored seed (cis(a·dtdStart)·cis(a·D − φ),
	// tried) decorrelates the trig rounding from the oracle's and the cost
	// fold's ~1e6 cancellation amplification turns that into ~1e-8, past
	// the 1e-9 contract. The j = −1 values follow from the
	// angle-difference identity on the Sincos components, so the second
	// seed per angle is free.
	dt1 := row.dtdStart + e.d
	sv1, cv1 := math.Sincos(k.a1*dt1 - k.phi1)
	tA1 := 2 * real(r.cjA1)
	cA1, pA1 := cv1, cv1*real(r.cjA1)+sv1*imag(r.cjA1)
	sv1, cv1 = math.Sincos(k.b1*dt1 - k.phi1)
	tB1 := 2 * real(r.cjB1)
	cB1, pB1 := cv1, cv1*real(r.cjB1)+sv1*imag(r.cjB1)
	ch1 := r.ch1[row.nLo:][:row.cnt]
	winScale, coef, lutInv := e.winScale, e.lutCoef, e.lutInv
	tStep, inv1 := r.tStep, e.inv1
	dAcc := 0.0
	if k.s0Zero {
		for j := range ch1 {
			x := dt1 * winScale
			if ax := x * x; ax < 1 {
				w := 1.0
				if coef != nil {
					p := ax * lutInv
					ii := int(p)
					if ii > lutSize-1 {
						ii = lutSize - 1
					}
					fr := p - float64(ii)
					c := coef[ii*4 : ii*4+4 : ii*4+4]
					w = ((c[3]*fr+c[2])*fr+c[1])*fr + c[0]
				}
				if w != 0 {
					var sv float64
					if math.Abs(dt1) < 1e-12 {
						sv = k.S(dt1)
					} else {
						sv = (cA1 - cB1) * inv1 / dt1
					}
					dAcc += ch1[j] * sv * w
				}
			}
			dt1 += tStep
			cA1, pA1 = tA1*cA1-pA1, cA1
			cB1, pB1 = tB1*cB1-pB1, cB1
		}
		return acc + dAcc
	}
	sv0, cv0 := math.Sincos(k.a0*dt1 - k.phi0)
	tA0 := 2 * real(r.cjA0)
	cA0, pA0 := cv0, cv0*real(r.cjA0)+sv0*imag(r.cjA0)
	sv0, cv0 = math.Sincos(k.b0*dt1 - k.phi0)
	tB0 := 2 * real(r.cjB0)
	cB0, pB0 := cv0, cv0*real(r.cjB0)+sv0*imag(r.cjB0)
	inv0 := e.inv0
	for j := range ch1 {
		x := dt1 * winScale
		if ax := x * x; ax < 1 {
			w := 1.0
			if coef != nil {
				p := ax * lutInv
				ii := int(p)
				if ii > lutSize-1 {
					ii = lutSize - 1
				}
				fr := p - float64(ii)
				c := coef[ii*4 : ii*4+4 : ii*4+4]
				w = ((c[3]*fr+c[2])*fr+c[1])*fr + c[0]
			}
			if w != 0 {
				var sv float64
				if math.Abs(dt1) < 1e-12 {
					sv = k.S(dt1)
				} else {
					num := (cA1 - cB1) * inv1
					num += (cA0 - cB0) * inv0
					sv = num / dt1
				}
				dAcc += ch1[j] * sv * w
			}
		}
		dt1 += tStep
		cA0, pA0 = tA0*cA0-pA0, cA0
		cB0, pB0 = tB0*cB0-pB0, cB0
		cA1, pA1 = tA1*cA1-pA1, cA1
		cB1, pB1 = tB1*cB1-pB1, cB1
	}
	return acc + dAcc
}

// CostFused returns the fused residual-power partial
//
//	Σ_{i in [lo,hi)} (rB(ts[i]) − rB1(ts[i]))²
//
// for one chunk of the skew.Cost objective: both reconstructions of each
// instant are produced back to back and only the squared difference is
// accumulated, so the values never round-trip through memory. The partial
// is a pure function of (captures, candidate delays, ts[lo:hi]) —
// independent of how the caller chunks [0, n) or how many workers evaluate
// the chunks — so folding fixed-size chunk partials in chunk order is
// bit-identical at any worker count. Both reconstructors must already be
// retuned to the same candidate delay.
func CostFused(rB, rB1 *Reconstructor, ts []float64, lo, hi int) float64 {
	eB := rB.fusedEvalCtx(ts)
	eB1 := rB1.fusedEvalCtx(ts)
	acc := 0.0
	for i := lo; i < hi; i++ {
		d := eB.at(i) - eB1.at(i)
		acc += d * d
	}
	return acc
}
