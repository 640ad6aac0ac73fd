package lint_test

import (
	"testing"

	"expanse/internal/lint"
	"expanse/internal/lint/linttest"
)

const src = "testdata/src"

// fixtureSealed seals the fixture's model types to their defining
// package, mirroring DefaultSealedTypes' shape.
var fixtureSealed = []lint.SealedType{
	{Qualified: "sealedtypes.Epoch", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.Verdicts", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.Column", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.World", SealPkg: "sealedtypes"},
	{Qualified: "sealedtypes.Net", SealPkg: "sealedtypes"},
}

// fixtureDetRand marks the detrand fixtures deterministic, with the
// exempt package carved back out.
var fixtureDetRand = lint.DetRandConfig{
	Deterministic: []string{"detrand", "detrandexempt", "allowfix"},
	Exempt:        []string{"detrandexempt"},
}

// fixtureHot designates the fixture's hot functions.
var fixtureHot = []lint.HotFunc{
	{PkgPath: "hotalloc", Func: "ScanColumns"},
	{PkgPath: "hotalloc", Func: "MergeColumns"},
	{PkgPath: "hotalloc", Func: "resolve"},
	{PkgPath: "hotalloc", Func: "resolveSeq"},
	{PkgPath: "hotalloc", Func: "expand"},
	{PkgPath: "hotalloc", Func: "newProfile"},
	{PkgPath: "hotalloc", Func: "fanOutWith"},
	{PkgPath: "hotalloc", Func: "traceTargets"},
	{PkgPath: "hotalloc", Func: "scanLanes"},
	{PkgPath: "hotalloc", Func: "goodLanes"},
	{PkgPath: "hotalloc", Func: "find"},
	{PkgPath: "hotalloc", Func: "insert"},
	{PkgPath: "hotalloc", Func: "Classify"},
	{PkgPath: "hotalloc", Func: "tally"},
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, src, "maporder", lint.NewMapOrder())
}

func TestSealedWrite(t *testing.T) {
	linttest.Run(t, src, "sealedwrite", lint.NewSealedWrite(fixtureSealed))
}

// TestSealedWriteBuilder pins the other half of the contract: inside
// the seal package the builder writes freely — zero diagnostics.
func TestSealedWriteBuilder(t *testing.T) {
	linttest.Run(t, src, "sealedtypes", lint.NewSealedWrite(fixtureSealed))
}

// TestSealedWriteWorld pins the columnar-world half of the fixture: the
// post-seal mutations (column patches, rank swaps, topology rewires)
// that the netsim.Internet entry in DefaultSealedTypes exists to catch.
func TestSealedWriteWorld(t *testing.T) {
	linttest.Run(t, src, "worldseal", lint.NewSealedWrite(fixtureSealed))
}

func TestDetRand(t *testing.T) {
	linttest.Run(t, src, "detrand", lint.NewDetRand(fixtureDetRand))
}

// TestDetRandExempt pins the carve-out: a package in both sets is
// exempt (cmd/bench*, internal/prof).
func TestDetRandExempt(t *testing.T) {
	linttest.Run(t, src, "detrandexempt", lint.NewDetRand(fixtureDetRand))
}

func TestHotAlloc(t *testing.T) {
	linttest.Run(t, src, "hotalloc", lint.NewHotAlloc(fixtureHot))
}

// TestAllow pins the suppression mechanism end to end: //lint:allow
// silences exactly the named analyzer on exactly the annotated line;
// stale and malformed allows are themselves findings.
func TestAllow(t *testing.T) {
	linttest.Run(t, src, "allowfix", lint.NewMapOrder(), lint.NewDetRand(fixtureDetRand))
}

// TestDefaultAnalyzers pins the shipped suite: four analyzers, unique
// names, all documented.
func TestDefaultAnalyzers(t *testing.T) {
	as := lint.DefaultAnalyzers()
	if len(as) != 4 {
		t.Fatalf("DefaultAnalyzers: got %d analyzers, want 4", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v missing name, doc or run", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"maporder", "sealedwrite", "detrand", "hotalloc"} {
		if !seen[name] {
			t.Errorf("missing analyzer %q", name)
		}
	}
}
