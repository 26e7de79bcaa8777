package main

import (
	"fmt"
	"math"

	"repro/internal/campaign"
	"repro/internal/core"
)

// probeSet is one plan whose units the traced run re-runs directly.
type probeSet struct {
	plan     *campaign.Plan
	verdicts map[string]campaign.UnitVerdict
}

func verdictKey(v campaign.UnitVerdict) string {
	return fmt.Sprintf("%s\x00%s\x00%d", v.Stimulus, v.Fault, v.Unit)
}

// scaledBase mirrors campaign's scaled paper scenario for Scale 0.1: the
// geometry every campaign unit runs at.
func scaledBase() core.Config {
	c := core.PaperScenario()
	c.CaptureLen, c.NTimes, c.PSDLen = 700, 60, 512
	c.SegLen = c.PSDLen / 4
	return c
}

// run rebuilds each unit of the probe plan the way Plan.RunCell does
// (process draw, fault, stimulus) and times core.New and BIST.Run under
// their own spans. Each verdict must match the one the cell streamed, which
// checks that the probe measured the same units. It yields the core.New /
// BIST.Run percentiles and the Report work counts the cells do not expose.
func (p *probeSet) run(tr *tracer, m metrics) error {
	if p == nil {
		return fmt.Errorf("no probe plan recorded")
	}
	base := scaledBase()
	var rs reportSums
	for _, cell := range p.plan.Cells {
		for u := 0; u < p.plan.Grid.Units; u++ {
			cfg := core.UnitConfig(base, core.TypicalSpread(), cell.Seed, u)
			if cell.Fault.Apply != nil {
				cell.Fault.Apply(&cfg)
			}
			cfg, err := cell.Stimulus.Configure(cfg)
			if err != nil {
				return err
			}
			id := fmt.Sprintf("%s/%s/%d", cell.Stimulus.Name, cell.Fault.Name, u)
			hn := tr.begin("core.new", 0, id)
			b, err := core.New(cfg)
			tr.end(hn)
			if err != nil {
				return err
			}
			hr := tr.begin("core.run", 0, id)
			rep, err := b.Run()
			tr.end(hr)
			if err != nil {
				return err
			}
			v, ok := p.verdicts[verdictKey(campaign.UnitVerdict{Stimulus: cell.Stimulus.Name, Fault: cell.Fault.Name, Unit: u})]
			if !ok || v.Pass != rep.Pass || (rep.Mask != nil && math.Float64bits(v.MarginDB) != math.Float64bits(rep.Mask.WorstMarginDB)) {
				return fmt.Errorf("probe unit %s does not reproduce the streamed verdict", id)
			}
			rs.add(rep)
		}
	}
	return unitLayers(rs, tr, m)
}
