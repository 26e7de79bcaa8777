package core

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dsp"
	"repro/internal/mask"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/par"
	"repro/internal/pnbs"
	"repro/internal/sig"
	"repro/internal/skew"
)

// Stage instruments for the BIST pipeline: one obs.Stage per stage, nested
// under one per run. Together with the run counter and skew's eval counter
// they make the paper's compute-budget discussion observable on a live run
// instead of analytic-only.
var (
	mRuns         = obs.C("core.bist.runs")
	stRun         = obs.NewStage("core.bist.run", "core.stage.total.seconds")
	stAcquire     = obs.NewStage("core.stage.acquire", "core.stage.acquire.seconds")
	stEstimate    = obs.NewStage("core.stage.estimate", "core.stage.estimate.seconds")
	stReconstruct = obs.NewStage("core.stage.reconstruct", "core.stage.reconstruct.seconds")
	stMeasure     = obs.NewStage("core.stage.measure", "core.stage.measure.seconds")
	tnADCCheck    = trace.Intern("core.stage.adccheck") // traced only
)

// ComputeBudget estimates the arithmetic work of one BIST execution — the
// quantity behind the paper's remark that the technique "is more suitable
// for an offline implementation". Counts are analytic (derived from the
// configuration and the LMS trace), not timed.
type ComputeBudget struct {
	// KernelEvals is the number of Kohlenberg kernel evaluations: the
	// dominant cost (a handful of complex multiplies each).
	KernelEvals int64
	// CostEvals is the number of objective evaluations Algorithm 1 used.
	CostEvals int
	// PSDSamples is the number of envelope-grid points reconstructed for
	// the spectral measurements.
	PSDSamples int
}

// Report is the structured outcome of one BIST execution.
type Report struct {
	// Scenario describes the DUT configuration under test.
	Scenario string

	// Delay identification.
	DNominal float64 // DCDE setting
	DActual  float64 // ground truth (simulation only)
	DHat     float64 // LMS estimate
	LMS      skew.LMSResult

	// Reconstruction fidelity against the true waveform at the evaluation
	// instants (simulation-only ground truth, the paper's Delta-epsilon).
	ReconRelErr float64

	// Spectral measurements through the BIST path.
	Mask       *mask.Report
	ACPRLowDB  float64
	ACPRHighDB float64
	// OBWHz is the measured 99 % occupied bandwidth.
	OBWHz float64

	// Reference mask check measured directly at the (noiseless) Tx output,
	// for escape/false-alarm analysis.
	RefMask *mask.Report

	// Modulator health (set when IRRTest is enabled).
	IRRMeasuredDB float64
	LOLeakageDBc  float64
	IRRTested     bool

	// Modulation quality through the BIST path (set when EVMTest is
	// enabled).
	EVM       *EVMOutcome
	EVMTested bool

	// Instrument pre-check (set when ADCCheck is enabled).
	ADC        *ADCCheckResult
	ADCChecked bool

	// Compute is the analytic work estimate for the run.
	Compute ComputeBudget

	// Verdict.
	Pass     bool
	Failures []string
}

// SkewErrPS returns |DHat - DActual| in picoseconds.
func (r *Report) SkewErrPS() float64 { return math.Abs(r.DHat-r.DActual) * 1e12 }

// Summary renders a compact multi-line report.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BIST %s\n", map[bool]string{true: "PASS", false: "FAIL"}[r.Pass])
	fmt.Fprintf(&b, "  scenario: %s\n", r.Scenario)
	fmt.Fprintf(&b, "  delay: nominal %.2f ps, actual %.2f ps, estimated %.3f ps (err %.3f ps, %d LMS iters)\n",
		r.DNominal*1e12, r.DActual*1e12, r.DHat*1e12, r.SkewErrPS(), r.LMS.Iterations)
	fmt.Fprintf(&b, "  reconstruction error: %.3g %%\n", 100*r.ReconRelErr)
	if r.Mask != nil {
		fmt.Fprintf(&b, "  mask %s: %v (worst margin %+.2f dB at %+.2f MHz)\n",
			r.Mask.MaskName, r.Mask.Pass, r.Mask.WorstMarginDB, r.Mask.WorstOffsetHz/1e6)
		fmt.Fprintf(&b, "  ACPR: %+.2f / %+.2f dB (low/high); 99%% OBW %.2f MHz\n",
			r.ACPRLowDB, r.ACPRHighDB, r.OBWHz/1e6)
	}
	if r.IRRTested {
		fmt.Fprintf(&b, "  IRR %.1f dB, LO leakage %.1f dBc\n", r.IRRMeasuredDB, r.LOLeakageDBc)
	}
	if r.EVMTested && r.EVM != nil {
		fmt.Fprintf(&b, "  EVM %.2f%% rms / %.2f%% peak over %d symbols\n",
			r.EVM.RMSPercent, r.EVM.PeakPercent, r.EVM.Symbols)
	}
	if r.ADCChecked && r.ADC != nil {
		fmt.Fprintf(&b, "  ADC pre-check: SNDR %.1f / %.1f dB (ch0/ch1)\n",
			r.ADC.SNDRdB[0], r.ADC.SNDRdB[1])
	}
	if r.Compute.KernelEvals > 0 {
		fmt.Fprintf(&b, "  compute: %.1f M kernel evals (%d cost evals, %d PSD samples)\n",
			float64(r.Compute.KernelEvals)/1e6, r.Compute.CostEvals, r.Compute.PSDSamples)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  failure: %s\n", f)
	}
	return b.String()
}

// Run executes the full BIST flow and returns the report.
func (b *BIST) Run() (*Report, error) {
	return b.RunCtx(trace.Root)
}

// RunCtx is Run under a trace parent: the whole execution nests in a
// "core.bist.run" span with one "core.stage.*" child per pipeline stage,
// so a capture shows where a run's wall time went — and, through the
// children the estimate stage hands down to skew, how the LMS descent
// spent it.
func (b *BIST) RunCtx(tc trace.Ctx) (*Report, error) {
	c := b.cfg
	mRuns.Inc()
	run := stRun.Start(tc)
	run.SetAttr("scenario", b.tx.Describe())
	defer run.End()
	rep := &Report{
		Scenario: b.tx.Describe(),
		DNominal: c.NominalD,
	}
	// 0. Instrument pre-check: do not trust a broken converter.
	if c.ADCCheck {
		spChk := trace.Start(run.Ctx(), tnADCCheck)
		chk, err := b.RunADCCheck()
		spChk.End()
		if err != nil {
			return nil, err
		}
		rep.ADCChecked = true
		rep.ADC = chk
		for i, sndr := range chk.SNDRdB {
			if sndr < c.MinADCSNDRdB {
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("ADC channel %d SNDR %.1f dB below instrument floor %.1f dB",
						i, sndr, c.MinADCSNDRdB))
			}
		}
	}

	// 1-2. Acquire the PA output nonuniformly at both rates.
	acq := stAcquire.Start(run.Ctx())
	setB, setB1, caps, actualD, err := b.acquire()
	acq.End()
	if err != nil {
		return nil, err
	}
	// The report aliases nothing from the acquisition, and the evaluator
	// and reconstructors built below die with this call — so the capture
	// buffers and the measure-stage scratch go back to their pools on every
	// exit path, keeping a campaign's steady-state allocation rate flat.
	defer caps[0].Release()
	defer caps[1].Release()
	defer b.releaseScratch()
	rep.DActual = actualD

	// 3. Identify the channel delay (Algorithm 1).
	est := stEstimate.Start(run.Ctx())
	res, ce, err := b.estimate(est.Ctx(), setB, setB1)
	est.End()
	if err != nil {
		return nil, err
	}
	rep.DHat = res.DHat
	rep.LMS = res

	// 4. Reconstruct the bandpass waveform with the estimated delay.
	recon := stReconstruct.Start(run.Ctx())
	rec, err := b.Reconstructor(setB, res.DHat)
	if err != nil {
		recon.End()
		return nil, err
	}
	// Ground-truth fidelity at the evaluation instants.
	truth := b.tx.Output()
	got := rec.AtTimes(ce.Times())
	want := sig.SampleAt(truth, ce.Times())
	rep.ReconRelErr = dsp.RelRMSError(got, want)
	recon.End()

	meas := stMeasure.Start(run.Ctx())
	defer meas.End()

	// 5. Spectral measurements.
	if c.Mask != nil {
		env, fsEnv, _, err := b.envelopeGrid(rec, c.PSDLen)
		if err != nil {
			return nil, err
		}
		spec, err := b.measurePSD(env, fsEnv)
		if err != nil {
			return nil, err
		}
		mrep, err := mask.Check(c.Mask, spec, c.Fc)
		if err != nil {
			return nil, err
		}
		rep.Mask = mrep
		if obw, _, err := mask.OccupiedBandwidth(spec, 0.99); err == nil {
			rep.OBWHz = obw
		}
		if v, err := mask.ACPR(spec, c.Fc, c.Mask.ChannelBW, -c.Mask.ChannelBW*1.25); err == nil {
			rep.ACPRLowDB = v
		}
		if v, err := mask.ACPR(spec, c.Fc, c.Mask.ChannelBW, c.Mask.ChannelBW*1.25); err == nil {
			rep.ACPRHighDB = v
		}
		// Reference: the same measurement directly on the Tx envelope.
		refSpec, err := b.referencePSD(meas.Ctx())
		if err == nil {
			if refRep, err := mask.Check(c.Mask, refSpec, c.Fc); err == nil {
				rep.RefMask = refRep
			}
		}
		if !mrep.Pass {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("spectral mask %s violated by %.2f dB at %+.2f MHz",
					mrep.MaskName, -mrep.WorstMarginDB, mrep.WorstOffsetHz/1e6))
		}
		if c.MinChannelPower > 0 && mrep.ChannelPower < c.MinChannelPower {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("channel power %.3g below minimum %.3g", mrep.ChannelPower, c.MinChannelPower))
		}
	}

	// 6. Modulation quality through the reconstruction path.
	if c.EVMTest {
		evm, err := b.RunEVMTest(rec, c.EVMSymbols)
		if err != nil {
			return nil, err
		}
		rep.EVMTested = true
		rep.EVM = evm
		if evm.RMSPercent > c.MaxEVMPercent {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("EVM %.2f%% above limit %.2f%%", evm.RMSPercent, c.MaxEVMPercent))
		}
	}

	// 7. Modulator health via the SSB tone test.
	if c.IRRTest {
		irr, leak, err := b.RunIRRTest(res.DHat)
		if err != nil {
			return nil, err
		}
		rep.IRRTested = true
		rep.IRRMeasuredDB = irr
		rep.LOLeakageDBc = leak
		if irr < c.MinIRRDB {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("image rejection %.1f dB below minimum %.1f dB", irr, c.MinIRRDB))
		}
		if leak > c.MaxLOLeakDBc {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("LO leakage %.1f dBc above limit %.1f dBc", leak, c.MaxLOLeakDBc))
		}
	}

	// Analytic compute accounting: every reconstruction evaluation touches
	// 2*(2h+1) kernel terms (both channels across the filter support).
	taps := int64(2 * (2*c.HalfTaps + 1))
	rep.Compute.CostEvals = res.CostEvals
	rep.Compute.KernelEvals = int64(res.CostEvals) * int64(c.NTimes) * 2 * taps
	if c.Mask != nil {
		rep.Compute.PSDSamples = c.PSDLen
		rep.Compute.KernelEvals += int64(c.PSDLen) * 4 * taps // 4x oversampled grid
	}
	rep.Compute.KernelEvals += int64(len(ce.Times())) * taps // fidelity check

	rep.Pass = len(rep.Failures) == 0
	return rep, nil
}

// Reconstructor builds the rate-B reconstructor for an acquired set and a
// delay estimate.
func (b *BIST) Reconstructor(setB skew.SampleSet, dHat float64) (*pnbs.Reconstructor, error) {
	return pnbs.NewReconstructor(setB.Band, dHat, setB.T0, setB.Ch0, setB.Ch1, b.opt())
}

// referencePSD measures the Welch PSD of the true Tx envelope on a uniform
// grid (the "golden" instrument the BIST replaces). Envelope evaluations
// are independent per instant, so they fan out over the par pool; each
// grid point's value depends only on its own instant, keeping the result
// identical at any worker count.
func (b *BIST) referencePSD(tc trace.Ctx) (*dsp.Spectrum, error) {
	c := b.cfg
	env := b.tx.OutputEnvelope()
	n := c.PSDLen
	xs := make([]complex128, n)
	par.ForCtx(tc, n, func(i int) {
		xs[i] = env.At(c.CaptureStart + float64(i)/c.B)
	})
	return dsp.WelchComplex(xs, c.B, c.Fc, dsp.DefaultWelch(c.SegLen))
}
