package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

const (
	// lotStimuli generated stimuli × the whole extended catalogue
	// (healthy + 12 faults) × lotUnits devices per cell make one lot of
	// 104 units. Per-unit cost depends on the stimulus, so a run needs
	// many stimuli (two per lot) for its work to vary little by seed;
	// four units per cell keep what early stopping and unit batching
	// would exploit.
	lotStimuli = 2
	lotUnits   = 4
)

// campaignLot runs production lots: each lot is a seeded grid at Scale
// 0.1, expanded with campaign.NewPlan and executed cell by cell with
// Plan.RunCell over nproc goroutines, the way Grid.Run does. There is no
// HTTP and no checkpointing.
type campaignLot struct {
	seed  int64
	grids map[int]campaign.Grid
	// probe holds the first traced lot's plan and streamed verdicts, for
	// the core.New / BIST.Run probe of the per-layer metrics.
	probe *probeSet
}

func setupCampaignLot(seed int64, lots int, _ string) (session, error) {
	w := &campaignLot{seed: seed, grids: map[int]campaign.Grid{}}
	w.generate(0, lots)
	// Fixed warm-up: one unit of every catalogue fault on a fixed
	// stimulus builds the fault models' and geometry's lazy tables.
	if _, err := grid(0, "warm-up", 0, 1, 1).Run(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *campaignLot) generate(first, n int) {
	for i := first; i < first+n; i++ {
		if _, ok := w.grids[i]; !ok {
			w.grids[i] = grid(w.seed, "campaign-lot", i, lotStimuli, lotUnits)
		}
	}
}

// lotWorker is one load-generating goroutine's share of a lot.
type lotWorker struct {
	unitMS      []float64
	units, errs int
	agree       int
	failures    []string
	wrong       []string
}

func (w *campaignLot) pass(first, n int, tr *tracer) (*outcome, error) {
	w.generate(first, n)
	o := newOutcome()
	workers := runtime.NumCPU()
	o.host.sample(1)
	start, paused := time.Now(), time.Duration(0)
	for li := first; li < first+n; li++ {
		g := w.grids[li]
		canon, err := g.MarshalCanonical()
		if err != nil {
			return nil, err
		}
		o.inputs.Write(canon)
		lotStart := time.Now()
		hl := tr.begin("lot", 0, fmt.Sprint("lot-", li))
		p, err := campaign.NewPlan(g)
		if err != nil {
			return nil, err
		}
		var (
			next      atomic.Int64
			firstOnce sync.Once
			wg        sync.WaitGroup
			mu        sync.Mutex
			verdicts  map[string]campaign.UnitVerdict
		)
		if tr != nil && w.probe == nil {
			verdicts = map[string]campaign.UnitVerdict{}
			w.probe = &probeSet{plan: p, verdicts: verdicts}
		}
		results := make([]campaign.CellResult, len(p.Cells))
		cellErr := make([]error, len(p.Cells))
		ws := make([]lotWorker, workers)
		for k := range ws {
			wg.Add(1)
			go func(lw *lotWorker) {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(p.Cells) {
						return
					}
					cell := p.Cells[i]
					last := time.Now()
					nonPass := 0
					hc := tr.begin("campaign.cell", hl, cell.Stimulus.Name+"/"+cell.Fault.Name)
					res, err := p.RunCell(i, func(v campaign.UnitVerdict) {
						now := time.Now()
						firstOnce.Do(func() { o.firstMS = append(o.firstMS, ms(now.Sub(lotStart))) })
						lw.unitMS = append(lw.unitMS, ms(now.Sub(last)))
						last = now
						lw.units++
						if v.Err != "" {
							lw.errs++
							lw.failures = append(lw.failures, fmt.Sprintf("lot %d %s/%s unit %d: %s", li, v.Stimulus, v.Fault, v.Unit, v.Err))
						}
						if v.Err != "" || !v.Pass {
							nonPass++
						}
						if v.Err == "" && v.Pass != cell.Fault.ShouldFail {
							lw.agree++
						}
						if verdicts != nil {
							mu.Lock()
							verdicts[verdictKey(v)] = v
							mu.Unlock()
						}
					})
					tr.end(hc)
					if err != nil {
						cellErr[i] = err
						continue
					}
					if res.Rejected != nonPass {
						lw.wrong = append(lw.wrong, fmt.Sprintf("lot %d cell %s/%s: Rejected %d but %d non-pass verdicts",
							li, res.Stimulus, res.Fault, res.Rejected, nonPass))
					}
					results[i] = res
				}
			}(&ws[k])
		}
		wg.Wait()
		cellsOK := true
		for i, err := range cellErr {
			if err != nil {
				// A cell that could not run lost all its units.
				o.attempted += g.Units
				o.failed += g.Units
				o.failures = append(o.failures, fmt.Sprintf("lot %d cell %d: %v", li, i, err))
				fmt.Fprintf(o.outputs, "lot %d cell %d err %v\n", li, i, err)
				cellsOK = false
			}
		}
		for _, lw := range ws {
			o.unitMS = append(o.unitMS, lw.unitMS...)
			o.units += lw.units - lw.errs
			o.attempted += lw.units
			o.failed += lw.errs
			o.agree += lw.agree
			o.wrong = append(o.wrong, lw.wrong...)
			o.failures = append(o.failures, lw.failures...)
		}
		o.cells += len(p.Cells)
		if cellsOK {
			m := p.Fold(results)
			b, err := m.MarshalCanonical()
			if err != nil {
				return nil, err
			}
			o.outputs.Write(b)
			for _, c := range m.Cells {
				o.rejected += c.Rejected
			}
		}
		tr.end(hl)
		o.lots++
		o.campaignS = append(o.campaignS, time.Since(lotStart).Seconds())
		paused += o.host.sample(1)
	}
	o.wall = time.Since(start) - paused
	return o, nil
}

func (w *campaignLot) layers(o *outcome, tr *tracer, _ *obs.Snapshot, m metrics) error {
	cellMS := tr.durations("campaign.cell")
	for _, q := range []struct {
		name string
		p    float64
	}{{"campaign.cell_ms_p50", 0.5}, {"campaign.cell_ms_p90", 0.9}} {
		v, err := percentile(cellMS, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		m.set(q.name, v, "ms")
	}
	m.set("campaign.units_evaluated_per_cell", float64(o.units+o.failed)/float64(o.cells), "count")
	return w.probe.run(tr, m)
}

func (w *campaignLot) close() error { return nil }
