package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// runFixture loads one testdata package and checks the analyzer's
// diagnostics against its // want comments.
func runFixture(t *testing.T, name string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load(LoadConfig{}, "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, p := range pkgs {
		if p.Analyze && p.TypeErr != nil {
			t.Fatalf("fixture %s does not type-check: %v", name, p.TypeErr)
		}
	}
	diags := RunAnalyzers(pkgs, analyzers)
	for _, e := range CheckExpectations(pkgs, diags) {
		t.Error(e)
	}
}

func TestHotloop(t *testing.T)       { runFixture(t, "hotloop", HotloopAnalyzer) }
func TestAtomicField(t *testing.T)   { runFixture(t, "atomicfield", AtomicFieldAnalyzer) }
func TestBoundedAlloc(t *testing.T)  { runFixture(t, "boundedalloc", BoundedAllocAnalyzer) }
func TestEpochSafe(t *testing.T)     { runFixture(t, "epochsafe", EpochSafeAnalyzer) }
func TestGoroutineLife(t *testing.T) { runFixture(t, "goroutinelife", GoroutineLifeAnalyzer) }
func TestCtxFlow(t *testing.T)       { runFixture(t, "ctxflow", CtxFlowAnalyzer) }
func TestErrSentinel(t *testing.T)   { runFixture(t, "errsentinel", ErrSentinelAnalyzer) }

// TestSuiteOnOwnTree is the dogfood check: the full suite must be clean
// on the module itself, matching the CI gate.
func TestSuiteOnOwnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := Load(LoadConfig{Dir: "../.."}, "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, p := range pkgs {
		if p.Analyze && p.TypeErr != nil {
			t.Fatalf("%s does not type-check: %v", p.ImportPath, p.TypeErr)
		}
	}
	for _, d := range RunAnalyzers(pkgs, All()) {
		t.Errorf("suite not clean on own tree: %s", d)
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := ByName("hotloop, atomicfield")
	if err != nil || len(two) != 2 || two[0].Name != "hotloop" || two[1].Name != "atomicfield" {
		t.Fatalf("ByName(hotloop, atomicfield) = %v, %v", two, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded; want error")
	}
}

func TestMalformedIgnore(t *testing.T) {
	src := `package p

func f() {
	//bsvet:ignore hotloop
	_ = 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	igs := parseIgnores(fset, []*ast.File{f}, &diags)
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "malformed //bsvet:ignore") {
		t.Fatalf("diags = %v; want one malformed-ignore diagnostic", diags)
	}
	if len(igs) != 0 {
		t.Fatalf("malformed pragma still produced a directive: %v", igs)
	}
}
