//go:build !race

package dsp

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
