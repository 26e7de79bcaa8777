package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs/trace"
)

// Cell is one (stimulus, fault) unit of campaign work: the indivisible job
// a runner schedules, checkpoints and shards. Its Seed derives from the
// cell's content (stimulus canonical JSON + fault name + grid seed), never
// from its position, which is what lets a cell carry byte-identical
// randomness into any process, shard or resume that runs it.
type Cell struct {
	Stimulus StimulusSpec
	Fault    core.Fault
	Seed     int64
}

// Key names the cell uniquely within its grid — the identity checkpoints
// and shard merges match on. Stimulus names are unique by Validate and
// fault names are unique in the catalogue, so the pair is collision-free.
func (c Cell) Key() string { return c.Stimulus.Name + "\x00" + c.Fault.Name }

// UnitVerdict is the per-device outcome a cell observer sees while a cell
// executes: what a production floor streams as each DUT comes off the
// tester, before the cell's aggregate exists.
type UnitVerdict struct {
	Stimulus string
	Fault    string
	// Unit is the device index within the cell's lot.
	Unit int
	// Pass is the BIST verdict; Err carries the run error when the unit
	// could not even be measured (counted as a rejection).
	Pass bool
	Err  string
	// HasMargin reports whether the run produced a mask verdict;
	// MarginDB is meaningful only when it did.
	HasMargin bool
	MarginDB  float64
}

// Plan is a grid expanded into its deterministic cell list: the defaulted,
// validated grid plus every (stimulus, fault) cell sorted by name. All
// incremental execution — the fleet service's streaming, checkpointing and
// sharding — runs over a Plan; Grid.Run is the batch convenience on top.
type Plan struct {
	// Grid is the defaulted, validated grid the plan was built from.
	Grid Grid
	// Cells is the cell list, sorted by (stimulus name, fault name). The
	// order is part of the sharding contract: shard partitions index into
	// this list, so every process that builds a Plan from the same grid
	// sees the same partition.
	Cells []Cell

	// OnCellDone, when non-nil, observes every completed cell with its
	// wall-clock duration. It exists for telemetry (rolling windows,
	// yield tracking); elapsed is deliberately passed alongside the result
	// rather than stored in it, because CellResult is golden-pinned and
	// must never carry wall-clock fields. Called on the goroutine that ran
	// the cell, after the aggregate is final.
	OnCellDone func(i int, result CellResult, elapsed time.Duration)

	base   core.Config
	spread core.ProcessSpread
}

// NewPlan defaults and validates the grid, resolves the fault list and
// expands the sorted cell list.
func NewPlan(g Grid) (*Plan, error) {
	g = g.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	catalog, err := core.BuildExtendedCatalog()
	if err != nil {
		return nil, err
	}
	faults := []core.Fault{{Name: healthyName, ShouldFail: false}}
	if len(g.Faults) == 0 {
		faults = append(faults, catalog...)
	} else {
		for _, name := range g.Faults {
			f, err := core.FaultByName(name)
			if err != nil {
				return nil, fmt.Errorf("campaign: grid: %w", err)
			}
			faults = append(faults, f)
		}
	}
	p := &Plan{Grid: g, base: baseConfig(g.Scale), spread: core.TypicalSpread()}
	for _, s := range g.Stimuli {
		canon, err := s.MarshalCanonical()
		if err != nil {
			return nil, fmt.Errorf("campaign: stimulus %s: %w", s.Name, err)
		}
		for _, f := range faults {
			p.Cells = append(p.Cells, Cell{Stimulus: s, Fault: f, Seed: cellSeed(g.Seed, canon, f.Name)})
		}
	}
	sortCellsByKey(p.Cells)
	return p, nil
}

// GridHash returns the short hex sha256 of the defaulted grid's canonical
// JSON: the identity checkpoints are keyed by. Two grids with the same
// hash expand to the same plan and the same matrix.
func (p *Plan) GridHash() (string, error) {
	b, err := p.Grid.MarshalCanonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// RunCell executes cell i's full lot through the BIST and returns its
// aggregate. onUnit, when non-nil, observes every device verdict as it
// lands (units run in lot order on the calling goroutine). The result is
// a pure function of the cell's content: the same CellResult bytes come
// back wherever and whenever the cell runs.
func (p *Plan) RunCell(i int, onUnit func(UnitVerdict)) (CellResult, error) {
	job := p.Cells[i]
	started := time.Now()
	sp := stCell.Start(trace.Root)
	cell := CellResult{
		Stimulus:   job.Stimulus.Name,
		Fault:      job.Fault.Name,
		ShouldFail: job.Fault.ShouldFail,
		Units:      p.Grid.Units,
	}
	worst, haveWorst := 0.0, false
	for u := 0; u < p.Grid.Units; u++ {
		cfg := core.UnitConfig(p.base, p.spread, job.Seed, u)
		if job.Fault.Apply != nil {
			job.Fault.Apply(&cfg)
		}
		cfg, err := job.Stimulus.Configure(cfg)
		if err != nil {
			sp.End()
			return CellResult{}, fmt.Errorf("campaign: cell %s/%s: %w", job.Stimulus.Name, job.Fault.Name, err)
		}
		rep, runErr := runUnit(cfg, sp.Ctx())
		mUnits.Inc()
		v := UnitVerdict{Stimulus: cell.Stimulus, Fault: cell.Fault, Unit: u}
		if runErr != nil {
			cell.Errors++
			cell.Rejected++ // unmeasurable units do not ship
			mErrors.Inc()
			mRejected.Inc()
			v.Err = runErr.Error()
		} else {
			v.Pass = rep.Pass
			if !rep.Pass {
				cell.Rejected++
				mRejected.Inc()
			}
			if rep.Mask != nil {
				v.HasMargin, v.MarginDB = true, rep.Mask.WorstMarginDB
				if !haveWorst || rep.Mask.WorstMarginDB < worst {
					worst, haveWorst = rep.Mask.WorstMarginDB, true
				}
			}
		}
		if onUnit != nil {
			onUnit(v)
		}
	}
	if haveWorst {
		cell.HasMargin, cell.WorstMarginDB = true, worst
	}
	cell.DetectionRate = float64(cell.Rejected) / float64(cell.Units)
	mCells.Inc()
	sp.End()
	if p.OnCellDone != nil {
		p.OnCellDone(i, cell, time.Since(started))
	}
	return cell, nil
}

// Fold aggregates cell results into the detection matrix. Results may
// arrive in any order and from any process — Fold sorts by name, so the
// matrix bytes depend only on the result set.
func (p *Plan) Fold(cells []CellResult) *DetectionMatrix {
	out := make([]CellResult, len(cells))
	copy(out, cells)
	return p.Grid.fold(out)
}

// ShardIndices returns the cell indices shard `index` of `count` owns: the
// strided partition i % count == index over the sorted cell list. Strided
// (rather than contiguous) keeps per-shard load even when one stimulus is
// much more expensive than another. The union over all shards is exactly
// [0, len(Cells)) and the partitions are disjoint, which is what makes a
// shard merge equal the single-process run byte-for-byte.
func (p *Plan) ShardIndices(index, count int) ([]int, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("campaign: shard %d/%d invalid (want 0 <= index < count)", index, count)
	}
	var out []int
	for i := index; i < len(p.Cells); i += count {
		out = append(out, i)
	}
	return out, nil
}

// sortCellsByKey orders cells by (stimulus name, fault name) — the same
// order fold emits, so Plan.Cells, checkpoints and the matrix all agree.
func sortCellsByKey(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Stimulus.Name != cells[j].Stimulus.Name {
			return cells[i].Stimulus.Name < cells[j].Stimulus.Name
		}
		return cells[i].Fault.Name < cells[j].Fault.Name
	})
}
