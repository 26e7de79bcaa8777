package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/campaign"
)

// Every input derives from the run seed: the same seed gives the same
// units, stimuli and grids, and lot i of a run is the same whatever the
// run's length.

// mix derives an independent seed for item i of a named input stream
// (FNV-1a over the label, SplitMix64 finaliser over seed and index).
func mix(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	z := uint64(seed) ^ h.Sum64()
	z += 0x9e3779b97f4a7c15 * uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

var (
	constellations = []string{"BPSK", "QPSK", "8PSK", "16QAM", "64QAM"}
	prbsOrders     = []uint{7, 9, 15, 23, 31}
	burstLens      = []int{64, 96, 128, 192, 256}
	// masks are the emission masks a 10 MHz carrier can be checked
	// against at campaign geometry; narrowband-vhf-25k has no offset
	// inside the captured span, so every unit under it errors.
	masks = []string{"wideband-qpsk-15M", "wideband-ofdm-5M", "wideband-multicarrier-10M"}
)

// stimulus draws one programmable stimulus within the ranges
// StimulusSpec.Validate accepts: constellation, PRBS order and seed,
// burst length, backoff in [-3, 9] dB and mask all vary.
func stimulus(r *rand.Rand, name string) campaign.StimulusSpec {
	order := prbsOrders[r.Intn(len(prbsOrders))]
	return campaign.StimulusSpec{
		Name:          name,
		Constellation: constellations[r.Intn(len(constellations))],
		PRBSOrder:     order,
		PRBSSeed:      uint32(1 + r.Int63n(int64(1)<<order-1)),
		BurstLen:      burstLens[r.Intn(len(burstLens))],
		BackoffDB:     -3 + 0.5*float64(r.Intn(25)),
		Mask:          masks[r.Intn(len(masks))],
	}
}

// grid draws grid i of a stream: nStim generated stimuli crossed with the
// whole extended fault catalogue, units draws per cell, at Scale 0.1
// (capture 700, NTimes 60, PSD 512).
func grid(seed int64, stream string, i, nStim, units int) campaign.Grid {
	gs := mix(seed, stream, i)
	r := rand.New(rand.NewSource(gs))
	g := campaign.Grid{Units: units, Seed: gs, Scale: 0.1, YieldThreshold: 0.5}
	for k := 0; k < nStim; k++ {
		g.Stimuli = append(g.Stimuli, stimulus(r, fmt.Sprintf("s%02d", k)))
	}
	return g
}
