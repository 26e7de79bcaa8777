package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// paperLotUnits is the devices per lot on unit-paper; campaign_s there is
// the time one tester takes to run a lot of this many devices in turn.
const paperLotUnits = 16

// unitPaper runs the paper's Section V operating point at full size
// (capture 2200, NTimes 300, PSD 2048), one device at a time through
// core.New + BIST.Run by one caller. Each device draws its own payload
// and process spread, so no work is shared between units.
type unitPaper struct {
	base    core.Config
	lotSeed int64
}

func setupUnitPaper(seed int64, _ int, _ string) (session, error) {
	base := core.PaperScenario()
	base.Seed = mix(seed, "unit-paper/payload", 0) >> 20
	w := &unitPaper{base: base, lotSeed: mix(seed, "unit-paper/spread", 0)}
	// Fixed warm-up: two devices at the same geometry build every lazy
	// table (FFT plans, windows, decimation filters) the timed phase uses.
	warm := core.PaperScenario()
	for u := 0; u < 2; u++ {
		b, err := core.New(core.UnitConfig(warm, core.TypicalSpread(), -1, u))
		if err != nil {
			return nil, err
		}
		if _, err := b.Run(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *unitPaper) pass(first, n int, tr *tracer) (*outcome, error) {
	o := newOutcome()
	o.host.sample(1)
	start, paused := time.Now(), time.Duration(0)
	for lot := first; lot < first+n; lot++ {
		lotStart := time.Now()
		hl := tr.begin("lot", 0, fmt.Sprint("lot-", lot))
		for k := 0; k < paperLotUnits; k++ {
			u := lot*paperLotUnits + k
			id := fmt.Sprint("unit-", u)
			t0 := time.Now()
			cfg := core.UnitConfig(w.base, core.TypicalSpread(), w.lotSeed, u)
			binary.Write(o.inputs, binary.LittleEndian, []float64{
				float64(cfg.Seed), cfg.TI.DCDE.Bias, cfg.TI.Ch0.Gain, cfg.TI.Ch1.Gain,
				cfg.TI.Ch0.Offset, cfg.TI.Ch1.Offset,
			})
			o.attempted++
			hn := tr.begin("core.new", hl, id)
			b, err := core.New(cfg)
			tr.end(hn)
			var rep *core.Report
			if err == nil {
				hr := tr.begin("core.run", hl, id)
				rep, err = b.Run()
				tr.end(hr)
			}
			lat := time.Since(t0)
			if err != nil {
				o.failed++
				o.failures = append(o.failures, fmt.Sprintf("unit %d: %v", u, err))
				fmt.Fprintf(o.outputs, "%d err %v\n", u, err)
				continue
			}
			o.units++
			o.unitMS = append(o.unitMS, ms(lat))
			if k == 0 {
				o.firstMS = append(o.firstMS, ms(time.Since(lotStart)))
			}
			// Every draw is healthy: the expected verdict is pass.
			if rep.Pass {
				o.agree++
			} else {
				o.rejected++
			}
			o.skewPS = append(o.skewPS, rep.SkewErrPS())
			o.reports.add(rep)
			margin := math.NaN()
			if rep.Mask != nil {
				margin = rep.Mask.WorstMarginDB
			}
			fmt.Fprintf(o.outputs, "%d %t %x %x\n", u, rep.Pass, math.Float64bits(rep.DHat), math.Float64bits(margin))
		}
		tr.end(hl)
		o.lots++
		o.campaignS = append(o.campaignS, time.Since(lotStart).Seconds())
		paused += o.host.sample(1)
	}
	o.wall = time.Since(start) - paused
	return o, nil
}

func (w *unitPaper) layers(o *outcome, tr *tracer, _ *obs.Snapshot, m metrics) error {
	return unitLayers(o.reports, tr, m)
}

func (w *unitPaper) close() error { return nil }
