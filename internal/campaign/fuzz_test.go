package campaign

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzStimulusSpecRoundTrip: for any input that parses, the canonical form
// is a fixed point — parse -> canonicalize -> re-parse -> re-canonicalize
// is byte-stable — and nothing ever panics. This is the contract the
// detection matrix's permutation invariance leans on: cell seeds hash the
// canonical bytes, so two ways of writing the same stimulus must hash
// identically.
func FuzzStimulusSpecRoundTrip(f *testing.F) {
	for _, s := range DefaultGrid().Stimuli {
		b, err := s.MarshalCanonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Name":"b","Constellation":"BPSK","PRBSOrder":7,"PRBSSeed":0,"BurstLen":16,"BackoffDB":-6,"Mask":"narrowband-vhf-25k"}`))
	f.Add([]byte(`{"Name":"q","Constellation":"64QAM","PRBSOrder":31,"PRBSSeed":4294967295,"BurstLen":65536,"BackoffDB":20,"Mask":"wideband-ofdm-5M"}`))
	f.Add([]byte(`{"Name":"z","Constellation":"QPSK","PRBSOrder":15,"PRBSSeed":1,"BurstLen":64,"BackoffDB":1e-300,"Mask":"wideband-qpsk-15M"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return // invalid inputs must error, not panic
		}
		c1, err := s.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v", err)
		}
		s2, err := ParseSpec(c1)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, c1)
		}
		c2, err := s2.MarshalCanonical()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(c1, c2) {
			t.Fatalf("canonical form not a fixed point:\n%s\n%s", c1, c2)
		}
	})
}

// FuzzParseGrid: ParseGrid never panics, and any grid it accepts
// round-trips through MarshalCanonical and ParseGrid to an equal value.
func FuzzParseGrid(f *testing.F) {
	for _, g := range []Grid{DefaultGrid(), planGrid()} {
		b, err := g.MarshalCanonical()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"Stimuli":[]}`))
	f.Add([]byte(`{"Faults":["dead-gain"],"Units":0,"Scale":0}`))
	f.Add([]byte(`{"Stimuli":null,"Seed":-1,"YieldThreshold":1}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		b, err := g.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted grid failed to marshal: %v", err)
		}
		g2, err := ParseGrid(b)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("grid changed in the round trip:\n%+v\n%+v", g, g2)
		}
	})
}

// FuzzParseCheckpoint: ParseCheckpoint and Validate against a small plan
// never panic, and any checkpoint ParseCheckpoint accepts round-trips
// through MarshalCanonical to an equal value with the same verdict.
func FuzzParseCheckpoint(f *testing.F) {
	p, err := NewPlan(planGrid())
	if err != nil {
		f.Fatal(err)
	}
	ck, err := NewCheckpoint(p, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := ck.MarshalCanonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	for _, c := range p.Cells {
		ck.Add(CellResult{Stimulus: c.Stimulus.Name, Fault: c.Fault.Name, Units: p.Grid.Units, Rejected: 1, DetectionRate: 1})
	}
	full, err := ck.MarshalCanonical()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add([]byte(`{"GridHash":"x","ShardIndex":1,"ShardCount":1,"Cells":[{"Stimulus":"a","Units":-1}]}`))
	f.Add([]byte(`{"ShardCount":0}}`))
	f.Add([]byte("{\"GridHash\":\"\x7f\"}")) // raw DEL: strconv.Quote writes the non-JSON \x7f
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCheckpoint(data)
		if err != nil {
			return
		}
		verr := c.Validate(p)
		b, err := c.MarshalCanonical()
		if err != nil {
			t.Fatalf("accepted checkpoint failed to marshal: %v", err)
		}
		c2, err := ParseCheckpoint(b)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(c, c2) {
			t.Fatalf("checkpoint changed in the round trip:\n%+v\n%+v", c, c2)
		}
		if verr2 := c2.Validate(p); (verr == nil) != (verr2 == nil) {
			t.Fatalf("round trip changed the verdict: %v vs %v", verr, verr2)
		}
	})
}
