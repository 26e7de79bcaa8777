package testkit

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
)

type inner struct {
	Name  string
	Ratio float64
}

type sample struct {
	ID      int
	Flag    bool
	Vals    []float64
	Curves  map[int][2]float64
	Labels  map[string]string
	Child   *inner
	Skipped string `json:"-"`
	Renamed string `json:"alias"`
}

func mkSample() sample {
	return sample{
		ID:   7,
		Flag: true,
		Vals: []float64{1.5, math.NaN(), math.Inf(1), math.Inf(-1), 0.1},
		Curves: map[int][2]float64{
			10: {1, 2},
			2:  {3, 4},
			-1: {5, 6},
		},
		Labels:  map[string]string{"b": "2", "a": "1"},
		Child:   &inner{Name: "x", Ratio: 1.0 / 3.0},
		Skipped: "must not appear",
		Renamed: "tagged",
	}
}

func TestMarshalCanonicalDeterministic(t *testing.T) {
	// Maps are the usual source of nondeterminism: encode many times.
	var first []byte
	for i := 0; i < 50; i++ {
		b, err := MarshalCanonical(mkSample())
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = b
			continue
		}
		if !bytes.Equal(first, b) {
			t.Fatalf("encoding %d differs:\n%s\nvs\n%s", i, first, b)
		}
	}
}

func TestMarshalCanonicalContent(t *testing.T) {
	b, err := MarshalCanonical(mkSample())
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"NaN"`, `"Infinity"`, `"-Infinity"`, `"alias"`, `0.3333333333333333`} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %s:\n%s", want, s)
		}
	}
	if strings.Contains(s, "must not appear") || strings.Contains(s, "Skipped") {
		t.Errorf("json:\"-\" field leaked:\n%s", s)
	}
	// Integer map keys sort numerically: -1 before 2 before 10.
	i1 := strings.Index(s, `"-1"`)
	i2 := strings.Index(s, `"2"`)
	i3 := strings.Index(s, `"10"`)
	if !(i1 >= 0 && i1 < i2 && i2 < i3) {
		t.Errorf("integer keys out of order (%d, %d, %d):\n%s", i1, i2, i3, s)
	}
	// Must remain parseable standard JSON.
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
}

func TestMarshalCanonicalNilHandling(t *testing.T) {
	type holder struct {
		P *inner
		S []float64
		M map[string]int
	}
	b, err := MarshalCanonical(holder{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"P": null`, `"S": null`, `"M": null`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("missing %s in:\n%s", want, b)
		}
	}
}

func TestMarshalCanonicalFloatFormatRoundTrips(t *testing.T) {
	for _, f := range []float64{0, 1, -1.5, 1e-12, 180e-12, 2.5e9, 0.1, 1.0 / 3.0, math.Pi} {
		s := FormatFloat(f)
		var back float64
		if err := json.Unmarshal([]byte(s), &back); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if back != f {
			t.Errorf("%v -> %s -> %v does not round-trip", f, s, back)
		}
	}
}

func TestMarshalCanonicalRejectsUnsupported(t *testing.T) {
	if _, err := MarshalCanonical(struct{ F func() }{}); err == nil {
		t.Error("func field must be rejected")
	}
	if _, err := MarshalCanonical(map[float64]int{1.5: 1}); err == nil {
		t.Error("float map key must be rejected")
	}
}

// FuzzCanonicalString: every string encodes to a JSON literal that
// encoding/json decodes back to the string (an invalid UTF-8 byte to
// U+FFFD), and to exactly strconv.Quote's bytes wherever those are already
// valid JSON, so committed canonical files keep their bytes.
func FuzzCanonicalString(f *testing.F) {
	for _, s := range []string{"", "plain", "a\"b\\c", "tab\tnl\n\b\f\r", "\x7f", "\a\v\x00\x1f",
		"π·—≤", "\u00ad\u2028", "\U0001f600", "\U000e0001", "\xff\xfe", "<&>", "\ufffd"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		b, err := MarshalCanonical(s)
		if err != nil {
			t.Fatal(err)
		}
		var back string
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%q encodes to invalid JSON %s: %v", s, b, err)
		}
		if want := string([]rune(s)); back != want {
			t.Fatalf("%q decodes back as %q, want %q", s, back, want)
		}
		if q := strconv.Quote(s); json.Valid([]byte(q)) && string(b) != q+"\n" {
			t.Fatalf("%q encodes as %s, strconv.Quote as %s", s, b, q)
		}
	})
}
