package fleet

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/testkit"
)

// TestParsersRejectTrailingData runs every parser of outside JSON bytes
// over one valid document with a stray closing delimiter, with junk after
// a stray delimiter, and with only extra whitespace. Decoder.More reports
// false before '}' and ']', so a More-based end check accepted the first
// two.
func TestParsersRejectTrailingData(t *testing.T) {
	g := fleetGrid()
	p, err := campaign.NewPlan(g)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := campaign.NewCheckpoint(p, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	canon := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	parsers := []struct {
		name  string
		valid []byte
		parse func([]byte) error
	}{
		{"campaign.ParseGrid", canon(g.MarshalCanonical()), func(b []byte) error {
			_, err := campaign.ParseGrid(b)
			return err
		}},
		{"campaign.ParseSpec", canon(g.Stimuli[0].MarshalCanonical()), func(b []byte) error {
			_, err := campaign.ParseSpec(b)
			return err
		}},
		{"campaign.ParseCheckpoint", canon(ck.MarshalCanonical()), func(b []byte) error {
			_, err := campaign.ParseCheckpoint(b)
			return err
		}},
		{"fleet.ParseSpec", canon(testkit.MarshalCanonical(Spec{Name: "a", Grid: g})), func(b []byte) error {
			_, err := ParseSpec(b)
			return err
		}},
	}
	for _, pc := range parsers {
		if err := pc.parse(pc.valid); err != nil {
			t.Fatalf("%s rejects its own canonical form: %v", pc.name, err)
		}
		for _, tail := range []string{"}", "]x"} {
			if pc.parse(append(pc.valid[:len(pc.valid):len(pc.valid)], tail...)) == nil {
				t.Errorf("%s accepted trailing %q", pc.name, tail)
			}
		}
		if err := pc.parse(append(pc.valid[:len(pc.valid):len(pc.valid)], "\n"...)); err != nil {
			t.Errorf("%s rejected trailing whitespace: %v", pc.name, err)
		}
	}
}

// FuzzFleetParseSpec: ParseSpec never panics, and any spec it accepts
// round-trips through MarshalCanonical and ParseSpec to an equal value.
func FuzzFleetParseSpec(f *testing.F) {
	b, err := testkit.MarshalCanonical(Spec{Name: "smoke", Grid: fleetGrid(), Trace: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Name":"x","Grid":{"Stimuli":[],"Units":3}}`))
	f.Add([]byte(`{"Name":"x","Bogus":1}`))
	f.Add([]byte(`{"Name":"a"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		b, err := testkit.MarshalCanonical(s)
		if err != nil {
			t.Fatalf("accepted spec failed to marshal: %v", err)
		}
		s2, err := ParseSpec(b)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, b)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("spec changed in the round trip:\n%+v\n%+v", s, s2)
		}
	})
}
