package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"expanse/internal/lint"
)

// decls is what a package declares at top level: function and method
// names (receivers dropped, as HotFunc names them) and type names.
type decls struct{ funcs, types map[string]bool }

// staleEntries returns every entry of the suite's tables that names
// nothing in the module rooted at root: a hot function no function or
// method of its package declares, a sealed type its package does not
// declare, a detrand path that is no package. An entry that names
// nothing polices nothing, and says so nowhere else.
func staleEntries(t *testing.T, modPath, root string, hot []lint.HotFunc, sealed []lint.SealedType, det lint.DetRandConfig) []string {
	t.Helper()
	pkgs := map[string]*decls{}
	load := func(path string) *decls {
		if d, ok := pkgs[path]; ok {
			return d
		}
		var d *decls
		if rest, ok := strings.CutPrefix(path+"/", modPath+"/"); ok {
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(rest, "/")))
			entries, _ := os.ReadDir(dir)
			fset := token.NewFileSet()
			for _, e := range entries {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if d == nil {
					d = &decls{funcs: map[string]bool{}, types: map[string]bool{}}
				}
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						d.funcs[decl.Name.Name] = true
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							if ts, ok := spec.(*ast.TypeSpec); ok {
								d.types[ts.Name.Name] = true
							}
						}
					}
				}
			}
		}
		pkgs[path] = d
		return d
	}
	var stale []string
	for _, h := range hot {
		if d := load(h.PkgPath); d == nil || !d.funcs[h.Func] {
			stale = append(stale, "hot "+h.PkgPath+" "+h.Func)
		}
	}
	for _, s := range sealed {
		i := strings.LastIndex(s.Qualified, ".")
		if d := load(s.Qualified[:i]); d == nil || !d.types[s.Qualified[i+1:]] {
			stale = append(stale, "sealed "+s.Qualified)
		}
		if load(s.SealPkg) == nil {
			stale = append(stale, "seal package "+s.SealPkg)
		}
	}
	for _, path := range append(slices.Clone(det.Deterministic), det.Exempt...) {
		if load(path) == nil {
			stale = append(stale, "detrand "+path)
		}
	}
	return stale
}

// TestLintTablesNameRealCode keeps the suite's tables honest: a deleted
// or renamed function, type or package leaves its entry behind silently
// (hotalloc simply finds no function of that name), so every entry must
// name code that exists. The renamed copies show each kind of stale
// entry is caught, and only it.
func TestLintTablesNameRealCode(t *testing.T) {
	modPath, root, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if stale := staleEntries(t, modPath, root, lint.DefaultHotFuncs, lint.DefaultSealedTypes, lint.DefaultDetRand); len(stale) > 0 {
		t.Errorf("lint table entries that name nothing: %q", stale)
	}

	hot := slices.Clone(lint.DefaultHotFuncs)
	hot[0].Func += "Renamed"
	sealed := slices.Clone(lint.DefaultSealedTypes)
	sealed[0].Qualified += "Renamed"
	det := lint.DefaultDetRand
	det.Deterministic = append(slices.Clone(det.Deterministic), "expanse/internal/renamed")
	want := []string{
		"hot " + hot[0].PkgPath + " " + hot[0].Func,
		"sealed " + sealed[0].Qualified,
		"detrand expanse/internal/renamed",
	}
	if got := staleEntries(t, modPath, root, hot, sealed, det); !slices.Equal(got, want) {
		t.Errorf("renamed entries: reported %q, want %q", got, want)
	}
}
