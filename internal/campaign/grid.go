package campaign

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/testkit"
)

// Grid declares a coverage campaign: a stimulus matrix crossed with a
// fault list over a population of simulated units. The grid is data, not
// code — it round-trips through canonical JSON, and its detection matrix
// depends only on its content (stimulus specs, fault set, units, seed,
// scale, threshold), never on row order or worker count.
type Grid struct {
	// Stimuli are the test stimuli to cross with the fault list. Names
	// must be unique.
	Stimuli []StimulusSpec
	// Faults names catalogue entries to inject (see core.ExtendedCatalog).
	// Empty means the whole extended catalogue.
	Faults []string
	// Units is the number of process-spread device draws per (stimulus,
	// fault) cell (0 = 1).
	Units int
	// Seed drives the per-unit impairment draws; cell seeds mix it with
	// the cell's content so the matrix is invariant under row order.
	Seed int64
	// Scale trades accuracy for speed exactly like the experiments runner:
	// 1 is the full paper-size acquisition, smaller shrinks captures and
	// PSDs proportionally (0 = 1).
	Scale float64
	// YieldThreshold is the detection-probability bar: a fault counts as
	// detected by a stimulus when at least this fraction of units is
	// rejected (0 = 0.5).
	YieldThreshold float64
}

// withDefaults fills the zero-value knobs.
func (g Grid) withDefaults() Grid {
	if g.Units == 0 {
		g.Units = 1
	}
	if g.Scale == 0 {
		g.Scale = 1
	}
	if g.YieldThreshold == 0 {
		g.YieldThreshold = 0.5
	}
	return g
}

// Validate checks the grid after defaulting: stimulus specs valid with
// unique names, fault names known, knobs in range.
func (g Grid) Validate() error {
	if len(g.Stimuli) == 0 {
		return fmt.Errorf("campaign: grid needs at least one stimulus")
	}
	seen := map[string]bool{}
	for _, s := range g.Stimuli {
		if err := s.Validate(); err != nil {
			return err
		}
		if seen[s.Name] {
			return fmt.Errorf("campaign: duplicate stimulus name %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, name := range g.Faults {
		if _, err := core.FaultByName(name); err != nil {
			return fmt.Errorf("campaign: grid: %w", err)
		}
	}
	if g.Units < 1 || g.Units > 4096 {
		return fmt.Errorf("campaign: units %d outside [1, 4096]", g.Units)
	}
	if g.Scale <= 0 || g.Scale > 1 {
		return fmt.Errorf("campaign: scale %g outside (0, 1]", g.Scale)
	}
	if g.YieldThreshold <= 0 || g.YieldThreshold > 1 {
		return fmt.Errorf("campaign: yield threshold %g outside (0, 1]", g.YieldThreshold)
	}
	return nil
}

// MarshalCanonical encodes the grid as canonical JSON.
func (g Grid) MarshalCanonical() ([]byte, error) {
	return testkit.MarshalCanonical(g)
}

// ParseGrid decodes a campaign file, applies defaults and validates.
// Unknown fields are rejected.
func ParseGrid(data []byte) (Grid, error) {
	var g Grid
	if err := testkit.UnmarshalStrict(data, &g); err != nil {
		return Grid{}, fmt.Errorf("campaign: parse grid: %w", err)
	}
	g = g.withDefaults()
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// DefaultGrid is the committed reference campaign: four stimuli spanning
// the drive/payload corners that the extended fault library is sensitive
// to, crossed with the whole catalogue.
//
//   - qpsk-nominal: the paper's operating point — catches everything a
//     single-stimulus BIST catches.
//   - qpsk-overdrive: 3 dB hot, the compression-sensitive probe.
//   - qam16-backoff6: high-PAPR payload backed off 6 dB — linearity
//     faults hide here (the documented escapes).
//   - qpsk-prbs7-short: minimal pattern generator (PRBS7, 64 symbols),
//     the cheapest stimulus a production tester would try first.
func DefaultGrid() Grid {
	return Grid{
		Stimuli: []StimulusSpec{
			{
				Name:          "qpsk-nominal",
				Constellation: "QPSK",
				PRBSOrder:     15,
				PRBSSeed:      0x2A5B,
				BurstLen:      128,
				BackoffDB:     0,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qpsk-overdrive",
				Constellation: "QPSK",
				PRBSOrder:     15,
				PRBSSeed:      0x11D7,
				BurstLen:      128,
				BackoffDB:     -3,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qam16-backoff6",
				Constellation: "16QAM",
				PRBSOrder:     23,
				PRBSSeed:      0x7FFF1,
				BurstLen:      128,
				BackoffDB:     6,
				Mask:          "wideband-qpsk-15M",
			},
			{
				Name:          "qpsk-prbs7-short",
				Constellation: "QPSK",
				PRBSOrder:     7,
				PRBSSeed:      0x55,
				BurstLen:      64,
				BackoffDB:     0,
				Mask:          "wideband-qpsk-15M",
			},
		},
		Units:          1,
		Seed:           1701,
		Scale:          1,
		YieldThreshold: 0.5,
	}.withDefaults()
}
