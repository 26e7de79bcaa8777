package main

import (
	"math"
	"reflect"
	"testing"
)

// deterministicRun sets a workload up and runs one lot of it untraced,
// returning the outputs that must repeat exactly at one seed.
func deterministicRun(t *testing.T, name string, seed int64) map[string]any {
	t.Helper()
	s, err := workloads[name].setup(seed, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.close(); err != nil {
			t.Error(err)
		}
	}()
	o, err := s.pass(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.wrong) > 0 {
		t.Fatalf("wrong output: %v", o.wrong)
	}
	if o.failed != 0 || o.units == 0 {
		t.Fatalf("%d of %d operations failed, %d units", o.failed, o.attempted, o.units)
	}
	return o.deterministic()
}

// TestDeterministicOutputs runs every workload twice at one seed and once
// at a held-out seed: the first two must print identical work counts,
// verdicts, estimates and matrix digests; the third must change the
// inputs.
func TestDeterministicOutputs(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := deterministicRun(t, name, 7)
			b := deterministicRun(t, name, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("two runs at seed 7 differ:\n%v\n%v", a, b)
			}
			c := deterministicRun(t, name, 8)
			if c["input_digest"] == a["input_digest"] {
				t.Fatalf("seed 8 produced the same inputs as seed 7 (%v)", a["input_digest"])
			}
		})
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 over 99 samples accepted")
	}
	if v, err := percentile(append(xs, 99), 0.9); err != nil || math.Abs(v-89.1) > 1e-9 {
		t.Fatalf("p90 over 0..99 = %v, %v; want 89.1", v, err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 over 19 samples accepted")
	}
}
