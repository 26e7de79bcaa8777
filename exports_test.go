package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that may
// have no caller outside tests, each with the reason it stays. Keys are
// "pkg.Name" for top-level names and "pkg.Type.Method" for methods, where
// pkg is the import path below repro/internal/.
var exportAllowlist = map[string]string{
	// Oracles: the direct forms the production kernels are checked against
	// (DESIGN.md §5a).
	"dsp.FFT":            "direct transform the cached Plan is compared with bit for bit",
	"dsp.IFFT":           "direct inverse transform, oracle of the inverse Plan and of FFT round trips",
	"dsp.DTFT":           "direct DTFT, oracle of the FFT bins and of window responses",
	"dsp.BesselI0Series": "power-series I0, oracle of the production BesselI0",
	"dsp.RMS":            "reference statistic the tests measure errors and noise with",
	"dsp.WelchReal":      "real-input Welch, checked against WelchComplex and used to measure real noise",
	"dsp.FromPowerDB":    "inverse of PowerDB, builds reference spectra in the mask tests",
	"dsp.FIR.Filter":     "direct convolution, the FuzzDecimateVsFilter oracle of FIR.Decimate",
	"adc.ADC.Sample":     "per-channel capture, the oracle of the tiadc parallel front end",

	// Test seams: they let tests drive real behaviour deterministically.
	"par.SetWorkers":            "pins the pool size for worker-invariance tests",
	"obs.SetEnabled":            "switches metrics collection on and off around a test",
	"obs.Enabled":               "read side of SetEnabled: tests assert a run leaves collection off",
	"fleet.Campaign.WaitState":  "blocks until a campaign leaves the queue, for service tests",
	"campaign.NewCheckpoint":    "builds a checkpoint for resume and validation tests",
	"campaign.ParseSpec":        "strict decoder of one stimulus spec, driven by FuzzStimulusSpecRoundTrip",
	"obs.Registry.CounterNames": "lists a registry's counters for the registry tests",
	"obs.Window.Shape":          "exposes a rolling window's slot geometry for its tests",
	"pnbs.Reconstructor.Kernel": "exposes the kernel so retune tests can read the delay in use",
	"tiadc.Capture.Times0":      "nominal channel-0 instants of a capture, for capture tests",
	"tiadc.Capture.Times1":      "nominal channel-1 instants of a capture, for capture tests",
	"tiadc.TIADC.Channel":       "one channel's ADC, used to build the per-channel capture oracle",

	// slog.Handler methods: called through the interface by log/slog.
	"obs/eventlog.JSONHandler.Handle":    "slog.Handler method",
	"obs/eventlog.JSONHandler.WithAttrs": "slog.Handler method",
	"obs/eventlog.JSONHandler.WithGroup": "slog.Handler method",

	// testkit is test support by design.
	"testkit.Golden":          "golden-file assertion",
	"testkit.Compare":         "tolerance-aware golden comparison",
	"testkit.DefaultOptions":  "default golden tolerances",
	"testkit.ScanProm":        "Prometheus text parser for exposition tests",
	"testkit.PromFamilyNames": "family names of a parsed exposition",
}

// TestNoTestOnlyExports fails when an exported top-level name (or method)
// declared in a non-test file under internal/ is referenced by no non-test
// file of the module or of perfbench/. Such API is kept alive only by its
// own tests; delete it, or add it to exportAllowlist with a reason.
func TestNoTestOnlyExports(t *testing.T) {
	dead, declared, err := testOnlyExports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		t.Errorf("%s is exported but no non-test file references it", name)
	}
	for name := range exportAllowlist {
		if !declared[name] {
			t.Errorf("allowlist entry %s names no exported declaration", name)
		}
	}
}

// srcFile is one parsed non-test Go file.
type srcFile struct {
	pkg  string // import path for files under internal/, "" otherwise
	file *ast.File
}

// exportDecl is one exported declaration under internal/.
type exportDecl struct {
	key   string // the exportAllowlist key
	pkg   string // import path of the declaring package
	name  string // the identifier
	recv  string // receiver type name for methods, "" otherwise
	ident *ast.Ident
}

// parseSources parses every non-test .go file below root, skipping testdata
// and dot directories. perfbench/ is its own module but imports repro, so
// its sources count as callers.
func parseSources(root string) ([]srcFile, error) {
	fset := token.NewFileSet()
	var out []srcFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		sf := srcFile{file: f}
		if dir == "internal" || strings.HasPrefix(dir, "internal/") {
			sf.pkg = "repro/" + dir
		}
		out = append(out, sf)
		return nil
	})
	return out, err
}

// collectExports lists the exported funcs, methods, types, vars and consts
// declared at top level in internal/ sources.
func collectExports(files []srcFile) []exportDecl {
	var out []exportDecl
	add := func(sf srcFile, id *ast.Ident, recv string) {
		if !id.IsExported() {
			return
		}
		key := strings.TrimPrefix(sf.pkg, "repro/internal/") + "."
		if recv != "" {
			key += recv + "."
		}
		key += id.Name
		out = append(out, exportDecl{key: key, pkg: sf.pkg, name: id.Name, recv: recv, ident: id})
	}
	for _, sf := range files {
		if sf.pkg == "" {
			continue
		}
		for _, decl := range sf.file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) > 0 {
					recv = recvTypeName(d.Recv.List[0].Type)
					if !ast.IsExported(recv) {
						continue
					}
				}
				add(sf, d.Name, recv)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(sf, s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(sf, n, "")
						}
					}
				}
			}
		}
	}
	return out
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// testOnlyExports returns the keys of the exported declarations under
// internal/ that no non-test file references and the allowlist does not
// name, and the set of all declared keys. A reference is a qualified
// identifier pkg.Name from another package, a bare identifier Name inside
// the declaring package, or, for a method, any selector x.Name in any file
// (method calls are matched by name alone, since the scan has no type
// information).
func testOnlyExports(root string) ([]string, map[string]bool, error) {
	files, err := parseSources(root)
	if err != nil {
		return nil, nil, err
	}
	decls := collectExports(files)

	qualified := map[string]bool{} // "importpath.Name" used from another package
	local := map[string]bool{}     // "importpath.Name" used inside its package
	selectors := map[string]bool{} // any selector name
	declIdents := map[*ast.Ident]bool{}
	declared := map[string]bool{}
	for _, d := range decls {
		declIdents[d.ident] = true
		declared[d.key] = true
	}
	for _, sf := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range sf.file.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				selectors[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if path, ok := imports[id.Name]; ok {
						qualified[path+"."+x.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if sf.pkg != "" && !declIdents[x] {
					local[sf.pkg+"."+x.Name] = true
				}
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		if _, ok := exportAllowlist[d.key]; ok {
			continue
		}
		var used bool
		if d.recv != "" {
			used = selectors[d.name]
		} else {
			used = qualified[d.pkg+"."+d.name] || local[d.pkg+"."+d.name]
		}
		if !used {
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, declared, nil
}

// TestExportScanFindsDeadExport checks the scan itself on a throwaway
// module tree: an exported function with no non-test caller is reported,
// one with a caller is not.
func TestExportScanFindsDeadExport(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/zz/zz.go", "package zz\n\nfunc Used() int { return 1 }\n\nfunc Dead() int { return 2 }\n\ntype T struct{}\n\nfunc (T) Called() {}\n\nfunc (T) Orphan() {}\n")
	write("internal/zz/zz_test.go", "package zz\n\nvar _ = Dead() + Used()\n")
	write("cmd/x/main.go", "package main\n\nimport \"repro/internal/zz\"\n\nfunc main() { _ = zz.Used(); zz.T{}.Called() }\n")
	dead, _, err := testOnlyExports(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"zz.Dead", "zz.T.Orphan"}
	if strings.Join(dead, ",") != strings.Join(want, ",") {
		t.Fatalf("dead = %v, want %v", dead, want)
	}
}
