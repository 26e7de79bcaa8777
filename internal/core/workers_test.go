package core

import (
	"bytes"
	"testing"

	"repro/internal/adc"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/testkit"
)

// TestRunWorkerInvariance pins the determinism contract of a unit's
// parallel serial-path steps end to end: the waveform normalisation (power
// probes fanned over the pool), the acquisition (signal evaluations fanned
// over the pool, random streams drawn serially) and the measure stage's
// direct decimator feed the whole BIST, and the full Report must be
// byte-identical at 1, 2 and 8 workers. The impaired case drives every Tx
// block (IQ imbalance, phase noise, spur comb, memory PA) through jittered,
// noisy int16 converters; the static-NL case takes the float capture path.
// At 8 workers under -race this is also the check that every envelope in
// the Tx chain is safe for concurrent At calls.
func TestRunWorkerInvariance(t *testing.T) {
	ext, err := BuildExtendedCatalog()
	if err != nil {
		t.Fatal(err)
	}
	impaired := fastScenario()
	for _, name := range []string{"mild-iq", "lo-phase-noise", "lo-spur-comb", "pa-memory"} {
		for _, f := range ext {
			if f.Name == name {
				f.Apply(&impaired)
			}
		}
	}
	for _, ch := range []*adc.Config{&impaired.TI.Ch0, &impaired.TI.Ch1} {
		ch.JitterRMS = 2e-12
		ch.NoiseRMS = 1e-3
	}
	if impaired.Tx.IQ == nil || impaired.Tx.PhaseNoise == nil || impaired.Tx.Spurs == nil {
		t.Fatal("impaired scenario misses a Tx block")
	}
	if _, ok := impaired.Tx.PA.(*rf.MemoryPolyPA); !ok {
		t.Fatalf("impaired scenario PA is %T, want the memory polynomial", impaired.Tx.PA)
	}
	nl, err := adc.NewRandomNL(10, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	floatPath := fastScenario()
	floatPath.TI.Ch1.NL = nl
	floatPath.ADCCheck = true

	for name, c := range map[string]Config{"impaired-int16": impaired, "static-nl": floatPath} {
		run := func(workers int) []byte {
			defer par.SetWorkers(par.SetWorkers(workers))
			// Recompute the normalisation gain at this worker count.
			gainCache.Range(func(k, _ any) bool { gainCache.Delete(k); return true })
			b, err := New(c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			out, err := testkit.MarshalCanonical(rep)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		ref := run(1)
		for _, w := range []int{2, 8} {
			if got := run(w); !bytes.Equal(got, ref) {
				t.Errorf("%s: Report at %d workers differs from 1 worker:\n%s\nvs\n%s", name, w, got, ref)
			}
		}
	}
}
