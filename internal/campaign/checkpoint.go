package campaign

import (
	"fmt"
	"sort"

	"repro/internal/testkit"
)

// Checkpoint is the durable record of a campaign's completed cells: what a
// fleet server writes periodically while a campaign runs, loads to resume
// after a restart, and what two shard processes exchange to merge their
// partitions. Because every CellResult is a pure function of its cell's
// content, a checkpoint needs no positional bookkeeping — the cell list IS
// the state, and replaying the missing cells reproduces the uninterrupted
// matrix byte for byte.
type Checkpoint struct {
	// GridHash is Plan.GridHash of the campaign the cells belong to; a
	// resume or merge against a different grid is refused.
	GridHash string
	// ShardIndex/ShardCount record the strided partition this process
	// owned (0/1 for an unsharded run).
	ShardIndex int
	ShardCount int
	// Cells are the completed cell results, sorted by (stimulus, fault).
	Cells []CellResult
}

// NewCheckpoint starts an empty checkpoint for one shard of a plan.
func NewCheckpoint(p *Plan, shardIndex, shardCount int) (*Checkpoint, error) {
	h, err := p.GridHash()
	if err != nil {
		return nil, err
	}
	if shardCount < 1 {
		shardIndex, shardCount = 0, 1
	}
	if shardIndex < 0 || shardIndex >= shardCount {
		return nil, fmt.Errorf("campaign: checkpoint shard %d/%d invalid", shardIndex, shardCount)
	}
	return &Checkpoint{GridHash: h, ShardIndex: shardIndex, ShardCount: shardCount}, nil
}

// Add records a completed cell, replacing any earlier result for the same
// (stimulus, fault) key and keeping the list sorted.
func (c *Checkpoint) Add(r CellResult) {
	for i := range c.Cells {
		if c.Cells[i].Stimulus == r.Stimulus && c.Cells[i].Fault == r.Fault {
			c.Cells[i] = r
			return
		}
	}
	c.Cells = append(c.Cells, r)
	sort.Slice(c.Cells, func(i, j int) bool {
		if c.Cells[i].Stimulus != c.Cells[j].Stimulus {
			return c.Cells[i].Stimulus < c.Cells[j].Stimulus
		}
		return c.Cells[i].Fault < c.Cells[j].Fault
	})
}

// Done reports the completed cell keys: what a resume skips.
func (c *Checkpoint) Done() map[string]CellResult {
	out := make(map[string]CellResult, len(c.Cells))
	for _, r := range c.Cells {
		out[r.Stimulus+"\x00"+r.Fault] = r
	}
	return out
}

// MarshalCanonical encodes the checkpoint as canonical JSON — the on-disk
// and over-the-wire form.
func (c *Checkpoint) MarshalCanonical() ([]byte, error) {
	return testkit.MarshalCanonical(c)
}

// ParseCheckpoint decodes a checkpoint, rejecting unknown fields (a
// corrupted or wrong file must fail loudly, not resume quietly).
func ParseCheckpoint(data []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := testkit.UnmarshalStrict(data, &c); err != nil {
		return nil, fmt.Errorf("campaign: parse checkpoint: %w", err)
	}
	return &c, nil
}

// Validate checks the checkpoint against a plan: hash match, shard in
// range, every cell a known key with the plan's unit count. Cells from a
// foreign grid or a stale lot size cannot leak into a resumed matrix.
func (c *Checkpoint) Validate(p *Plan) error {
	h, err := p.GridHash()
	if err != nil {
		return err
	}
	if c.GridHash != h {
		return fmt.Errorf("campaign: checkpoint grid hash %s does not match plan %s", c.GridHash, h)
	}
	if c.ShardCount < 1 || c.ShardIndex < 0 || c.ShardIndex >= c.ShardCount {
		return fmt.Errorf("campaign: checkpoint shard %d/%d invalid", c.ShardIndex, c.ShardCount)
	}
	known := make(map[string]bool, len(p.Cells))
	for _, cell := range p.Cells {
		known[cell.Key()] = true
	}
	for _, r := range c.Cells {
		if !known[r.Stimulus+"\x00"+r.Fault] {
			return fmt.Errorf("campaign: checkpoint cell %s/%s not in plan", r.Stimulus, r.Fault)
		}
		if r.Units != p.Grid.Units {
			return fmt.Errorf("campaign: checkpoint cell %s/%s ran %d units, plan wants %d",
				r.Stimulus, r.Fault, r.Units, p.Grid.Units)
		}
	}
	return nil
}

// MergeCheckpoints folds shard checkpoints into the full detection matrix.
// Every plan cell must be covered exactly once across the inputs and every
// checkpoint must validate against the grid; the fold then sorts by name,
// so the merged matrix is byte-identical to the single-process run — the
// multi-process sharding contract the fleet tests pin.
func MergeCheckpoints(g Grid, cks ...*Checkpoint) (*DetectionMatrix, error) {
	p, err := NewPlan(g)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(p.Cells))
	var cells []CellResult
	for _, ck := range cks {
		if err := ck.Validate(p); err != nil {
			return nil, err
		}
		for _, r := range ck.Cells {
			key := r.Stimulus + "\x00" + r.Fault
			if seen[key] {
				return nil, fmt.Errorf("campaign: merge: cell %s/%s covered twice", r.Stimulus, r.Fault)
			}
			seen[key] = true
			cells = append(cells, r)
		}
	}
	if len(cells) != len(p.Cells) {
		return nil, fmt.Errorf("campaign: merge: %d of %d cells covered", len(cells), len(p.Cells))
	}
	return p.Fold(cells), nil
}
