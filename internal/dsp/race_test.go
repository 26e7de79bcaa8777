//go:build race

package dsp

// raceEnabled reports a race-detector build. The detector makes sync.Pool
// drop items at random, so the plan scratch pool can miss and allocate; the
// zero-alloc assertions hold only in plain builds.
const raceEnabled = true
