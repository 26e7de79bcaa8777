package testkit

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
)

// Update rewrites golden files instead of comparing against them:
//
//	go test ./internal/experiments -run Golden -update
//
// The canonical encoder is deterministic, so running -update twice yields
// byte-identical files.
var Update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// Tol is a numeric tolerance: a leaf passes when |got-want| <= Abs or
// |got-want| <= Rel * max(|got|, |want|). The zero Tol demands exact
// equality.
type Tol struct {
	Abs float64
	Rel float64
}

// ok reports whether got and want agree within the tolerance. Non-finite
// values must match exactly (NaN equals NaN; infinities must share sign).
func (tl Tol) ok(got, want float64) bool {
	if math.IsNaN(got) || math.IsNaN(want) {
		return math.IsNaN(got) && math.IsNaN(want)
	}
	if math.IsInf(got, 0) || math.IsInf(want, 0) {
		return got == want
	}
	d := math.Abs(got - want)
	if d <= tl.Abs {
		return true
	}
	m := math.Max(math.Abs(got), math.Abs(want))
	return d <= tl.Rel*m
}

// Rule attaches a tolerance to the fields whose path matches Pattern.
// Paths are /-separated: object keys verbatim, array indices in decimal
// ("Traces/2/Result/DHat"). Pattern follows path.Match, so "*" spans one
// segment ("Rows/*/ReconErr"); a trailing "/**" matches the whole subtree.
// The first matching rule wins; the Options default applies otherwise.
type Rule struct {
	Pattern string
	Tol     Tol
}

// Options configures a golden comparison.
type Options struct {
	// Default is the tolerance for fields no rule matches.
	Default Tol
	// Rules are per-field overrides, tried in order.
	Rules []Rule
}

// DefaultOptions returns the tolerance the experiment goldens use: tight
// enough that any physically meaningful drift (a fraction of a picosecond,
// a hundredth of a dB) fails, loose enough to absorb FP reassociation from
// compiler or scheduling changes.
func DefaultOptions() Options {
	return Options{Default: Tol{Abs: 1e-15, Rel: 1e-9}}
}

func (o Options) tolFor(p string) Tol {
	for _, r := range o.Rules {
		if matchRule(r.Pattern, p) {
			return r.Tol
		}
	}
	return o.Default
}

// matchRule matches a field path against a rule pattern; "prefix/**"
// matches everything strictly below a prefix that itself matches.
func matchRule(pattern, p string) bool {
	if strings.HasSuffix(pattern, "/**") {
		prefix := strings.TrimSuffix(pattern, "/**")
		head := firstSegments(p, segCount(prefix))
		ok, err := path.Match(prefix, head)
		return err == nil && ok && len(p) > len(head)
	}
	ok, err := path.Match(pattern, p)
	return err == nil && ok
}

func segCount(p string) int {
	if p == "" {
		return 0
	}
	n := 1
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			n++
		}
	}
	return n
}

// firstSegments returns the first n /-separated segments of p (p itself if
// it has fewer).
func firstSegments(p string, n int) string {
	cnt := 0
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			cnt++
			if cnt == n {
				return p[:i]
			}
		}
	}
	return p
}

// Mismatch is one out-of-tolerance leaf or structural difference.
type Mismatch struct {
	Path string
	Got  string
	Want string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("%s: got %s, want %s", m.Path, m.Got, m.Want)
}

// CompareBytes parses two canonical-JSON documents and returns every
// difference outside the configured tolerances. A nil slice means the
// documents agree.
func CompareBytes(got, want []byte, opt Options) ([]Mismatch, error) {
	g, err := parseJSON(got)
	if err != nil {
		return nil, fmt.Errorf("testkit: parse got: %w", err)
	}
	w, err := parseJSON(want)
	if err != nil {
		return nil, fmt.Errorf("testkit: parse want: %w", err)
	}
	var ms []Mismatch
	compareTree(g, w, "", opt, &ms)
	return ms, nil
}

// Compare canonically encodes got and compares it against the encoding of
// want (convenience for in-memory checks and the testkit's own tests).
func Compare(got, want any, opt Options) ([]Mismatch, error) {
	gb, err := MarshalCanonical(got)
	if err != nil {
		return nil, err
	}
	wb, err := MarshalCanonical(want)
	if err != nil {
		return nil, err
	}
	return CompareBytes(gb, wb, opt)
}

func parseJSON(b []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// asNumber converts a parsed leaf into a float64, unquoting the non-finite
// sentinels the canonical encoder emits.
func asNumber(v any) (float64, bool) {
	switch x := v.(type) {
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	case string:
		switch x {
		case sentinelNaN:
			return math.NaN(), true
		case sentinelPosInf:
			return math.Inf(1), true
		case sentinelNegInf:
			return math.Inf(-1), true
		}
	}
	return 0, false
}

func render(v any) string {
	switch x := v.(type) {
	case nil:
		return "null"
	case json.Number:
		return x.String()
	case string:
		return strconv.Quote(x)
	case bool:
		return strconv.FormatBool(x)
	case map[string]any:
		return fmt.Sprintf("object with %d keys", len(x))
	case []any:
		return fmt.Sprintf("array of %d", len(x))
	}
	return fmt.Sprintf("%v", v)
}

func joinPath(p, seg string) string {
	if p == "" {
		return seg
	}
	return p + "/" + seg
}

func compareTree(got, want any, p string, opt Options, ms *[]Mismatch) {
	// Numeric leaves (including sentinel strings) compare by tolerance.
	gf, gok := asNumber(got)
	wf, wok := asNumber(want)
	if gok && wok {
		if !opt.tolFor(p).ok(gf, wf) {
			*ms = append(*ms, Mismatch{p, render(got), render(want)})
		}
		return
	}
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			*ms = append(*ms, Mismatch{p, render(got), render(want)})
			return
		}
		for k, wv := range w {
			gv, present := g[k]
			if !present {
				*ms = append(*ms, Mismatch{joinPath(p, k), "missing", render(wv)})
				continue
			}
			compareTree(gv, wv, joinPath(p, k), opt, ms)
		}
		for k, gv := range g {
			if _, present := w[k]; !present {
				*ms = append(*ms, Mismatch{joinPath(p, k), render(gv), "absent from golden"})
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			*ms = append(*ms, Mismatch{p, render(got), render(want)})
			return
		}
		if len(g) != len(w) {
			*ms = append(*ms, Mismatch{p, render(got), render(want)})
			return
		}
		for i := range w {
			compareTree(g[i], w[i], joinPath(p, strconv.Itoa(i)), opt, ms)
		}
	default:
		if got != want {
			*ms = append(*ms, Mismatch{p, render(got), render(want)})
		}
	}
}

// TB is the subset of *testing.T the golden helper needs. Taking the
// interface keeps package testkit importable from non-test binaries
// (cmd/bistlab links the canonical encoder).
type TB interface {
	Helper()
	Fatalf(format string, args ...any)
	Errorf(format string, args ...any)
	Logf(format string, args ...any)
}

// maxReported bounds the mismatches printed per golden so a wholesale
// drift does not flood the test log.
const maxReported = 20

// Golden canonically encodes v and compares it with the golden file at
// path. With -update a missing or failing golden is (re)written instead; a
// golden that already passes is left untouched, so an update re-pins only
// the files whose values actually moved beyond their tolerance rules.
// Missing goldens fail with a regeneration hint.
func Golden(t TB, goldenPath string, v any, opt Options) {
	t.Helper()
	got, err := MarshalCanonical(v)
	if err != nil {
		t.Fatalf("testkit: encode %s: %v", goldenPath, err)
		return
	}
	if *Update {
		if want, err := os.ReadFile(goldenPath); err == nil {
			if ms, err := CompareBytes(got, want, opt); err == nil && len(ms) == 0 {
				t.Logf("testkit: %s passes, left unchanged", goldenPath)
				return
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatalf("testkit: mkdir for %s: %v", goldenPath, err)
			return
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatalf("testkit: write %s: %v", goldenPath, err)
			return
		}
		t.Logf("testkit: wrote %s (%d bytes)", goldenPath, len(got))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("testkit: %v (regenerate with -update)", err)
		return
	}
	ms, err := CompareBytes(got, want, opt)
	if err != nil {
		t.Fatalf("testkit: compare %s: %v", goldenPath, err)
		return
	}
	if len(ms) == 0 {
		return
	}
	shown := ms
	if len(shown) > maxReported {
		shown = shown[:maxReported]
	}
	for _, m := range shown {
		t.Errorf("%s: %s", filepath.Base(goldenPath), m)
	}
	if len(ms) > len(shown) {
		t.Errorf("%s: ... and %d more mismatches", filepath.Base(goldenPath), len(ms)-len(shown))
	}
}
