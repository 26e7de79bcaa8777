package testkit

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTolSemantics(t *testing.T) {
	cases := []struct {
		tol        Tol
		got, want  float64
		shouldPass bool
	}{
		{Tol{}, 1, 1, true},
		{Tol{}, 1, 1 + 1e-15, false}, // zero Tol is exact
		{Tol{Abs: 1e-12}, 180e-12, 180.5e-12, true},
		{Tol{Abs: 1e-13}, 180e-12, 182e-12, false},
		{Tol{Rel: 1e-9}, 1e6, 1e6 * (1 + 5e-10), true},
		{Tol{Rel: 1e-9}, 1e6, 1e6 * (1 + 5e-9), false},
		{Tol{Rel: 1e-9}, math.NaN(), math.NaN(), true},
		{Tol{Rel: 1e-9}, math.NaN(), 1, false},
		{Tol{Rel: 1e-9}, math.Inf(1), math.Inf(1), true},
		{Tol{Rel: 1e-9}, math.Inf(1), math.Inf(-1), false},
		{Tol{Rel: 1e-9}, math.Inf(1), 1e308, false},
	}
	for i, c := range cases {
		if got := c.tol.ok(c.got, c.want); got != c.shouldPass {
			t.Errorf("case %d: tol %+v ok(%g, %g) = %v, want %v", i, c.tol, c.got, c.want, got, c.shouldPass)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	opt := Options{
		Default: Tol{},
		Rules: []Rule{
			{Pattern: "Rows/*/ReconErr", Tol: Tol{Abs: 1}},
			{Pattern: "Traces/**", Tol: Tol{Abs: 2}},
			{Pattern: "DTrue", Tol: Tol{Abs: 3}},
		},
	}
	cases := map[string]float64{
		"Rows/0/ReconErr":      1,
		"Rows/12/ReconErr":     1,
		"Rows/0/SkewErr":       0,
		"Traces/0/Result/DHat": 2,
		"Traces/5":             2,
		"Traces":               0, // subtree pattern is strictly below
		"DTrue":                3,
		"Other":                0,
	}
	for p, want := range cases {
		if got := opt.tolFor(p).Abs; got != want {
			t.Errorf("tolFor(%q).Abs = %g, want %g", p, got, want)
		}
	}
}

type doc struct {
	A float64
	B []float64
	C string
	N float64 // NaN/Inf channel
}

func TestCompareWithinTolerance(t *testing.T) {
	w := doc{A: 1, B: []float64{1, 2, 3}, C: "x", N: math.NaN()}
	g := w
	g.A = 1 + 1e-12
	g.B = []float64{1, 2 + 1e-12, 3}
	ms, err := Compare(g, w, Options{Default: Tol{Rel: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("unexpected mismatches: %v", ms)
	}
}

func TestCompareFlagsDrift(t *testing.T) {
	w := doc{A: 1, B: []float64{1, 2, 3}, C: "x"}
	g := doc{A: 1.1, B: []float64{1, 2, 4}, C: "y"}
	ms, err := Compare(g, w, Options{Default: Tol{Rel: 1e-9}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("want 3 mismatches, got %v", ms)
	}
	paths := map[string]bool{}
	for _, m := range ms {
		paths[m.Path] = true
	}
	for _, p := range []string{"A", "B/2", "C"} {
		if !paths[p] {
			t.Errorf("missing mismatch at %s: %v", p, ms)
		}
	}
}

func TestCompareStructural(t *testing.T) {
	type v1 struct{ A, B float64 }
	type v2 struct{ A, X float64 }
	ms, err := Compare(v2{A: 1, X: 2}, v1{A: 1, B: 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 { // B missing, X extra
		t.Fatalf("want 2 structural mismatches, got %v", ms)
	}
	// Array length change is one mismatch, not a flood.
	ms, err = Compare(doc{B: []float64{1}}, doc{B: []float64{1, 2, 3}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms {
		if m.Path == "B" && strings.Contains(m.Got, "array of 1") {
			found = true
		}
	}
	if !found {
		t.Errorf("array length mismatch not reported: %v", ms)
	}
}

// recorder satisfies TB and captures failures.
type recorder struct {
	fatal, errs, logs []string
}

func (r *recorder) Helper() {}
func (r *recorder) Fatalf(f string, a ...any) {
	r.fatal = append(r.fatal, f)
}
func (r *recorder) Errorf(f string, a ...any) {
	r.errs = append(r.errs, f)
}
func (r *recorder) Logf(f string, a ...any) {
	r.logs = append(r.logs, f)
}

// TestGoldenUpdateLeavesPassingFileUntouched: -update must not rewrite a
// golden that already passes, even when in-tolerance leaves differ from the
// fresh encoding — only a failing golden is re-pinned, and then whole.
func TestGoldenUpdateLeavesPassingFileUntouched(t *testing.T) {
	p := filepath.Join(t.TempDir(), "case.json")
	v := doc{A: 1.5, B: []float64{2, 3}, C: "pinned"}
	old := *Update
	defer func() { *Update = old }()
	*Update = true
	var rec recorder
	Golden(&rec, p, v, DefaultOptions())
	pinned, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}

	// In-tolerance drift (1e-12 relative, under the 1e-9 default): the
	// golden passes, so the file keeps its bytes.
	drift := v
	drift.A = 1.5 * (1 + 1e-12)
	Golden(&rec, p, drift, DefaultOptions())
	if after, _ := os.ReadFile(p); string(after) != string(pinned) {
		t.Fatalf("-update rewrote a passing golden:\n%s\nvs\n%s", after, pinned)
	}

	// Out-of-tolerance drift: the golden fails, so -update re-pins it.
	drift.A = 2.5
	Golden(&rec, p, drift, DefaultOptions())
	want, err := MarshalCanonical(drift)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(p); string(after) != string(want) {
		t.Fatalf("-update did not re-pin a failing golden: %s", after)
	}
	if len(rec.fatal)+len(rec.errs) != 0 {
		t.Fatalf("update flow failed: %+v", rec)
	}
}

func TestGoldenUpdateAndCompareCycle(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "sub", "case.json")
	v := doc{A: 42e-12, B: []float64{1, math.Inf(1)}, C: "hello", N: math.NaN()}

	// Missing golden: fatal with a regeneration hint.
	var rec recorder
	Golden(&rec, p, v, DefaultOptions())
	if len(rec.fatal) == 0 {
		t.Fatal("missing golden must be fatal")
	}

	// -update writes it (and a second write is byte-identical).
	old := *Update
	*Update = true
	rec = recorder{}
	Golden(&rec, p, v, DefaultOptions())
	first, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	Golden(&rec, p, v, DefaultOptions())
	second, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	*Update = old
	if string(first) != string(second) {
		t.Fatal("-update not byte-deterministic")
	}
	if len(rec.fatal)+len(rec.errs) != 0 {
		t.Fatalf("update flow failed: %+v", rec)
	}

	// Same value compares clean.
	rec = recorder{}
	Golden(&rec, p, v, DefaultOptions())
	if len(rec.fatal)+len(rec.errs) != 0 {
		t.Fatalf("clean compare failed: %+v", rec)
	}

	// Out-of-tolerance drift fails.
	drift := v
	drift.A = 43e-12
	rec = recorder{}
	Golden(&rec, p, drift, DefaultOptions())
	if len(rec.errs) == 0 {
		t.Fatal("drift not detected")
	}

	// In-tolerance drift passes with a loose rule on exactly that field.
	rec = recorder{}
	Golden(&rec, p, drift, Options{
		Default: Tol{Rel: 1e-9},
		Rules:   []Rule{{Pattern: "A", Tol: Tol{Abs: 2e-12}}},
	})
	if len(rec.fatal)+len(rec.errs) != 0 {
		t.Fatalf("rule did not absorb drift: %+v", rec)
	}
}
