// Package analysis is bsvet's static-analysis suite: a small, stdlib-only
// re-implementation of the golang.org/x/tools/go/analysis driver model
// (this module is dependency-free by policy, so the framework is grown
// here rather than imported) plus the seven analyzers that mechanise the
// kernel's hand-checked performance, safety and lifecycle invariants:
//
//   - hotloop: functions annotated //bsvet:hotloop must stay tight — no
//     heap allocations, interface conversions, defers, closures, or calls
//     to non-annotated/non-intrinsic functions.
//   - atomicfield: a struct field updated through sync/atomic must never
//     be read or written plainly outside its constructor, and 64-bit
//     fields must be alignment-safe on 32-bit platforms.
//   - boundedalloc: allocation sizes decoded from untrusted input must
//     flow through a bound check before make/io.ReadFull.
//   - epochsafe: sealed types (annotated //bsvet:sealed, or published
//     through an atomic.Pointer epoch swap) may only be written inside
//     //bsvet:builder functions — published epochs are read-only.
//   - goroutinelife: every go statement in non-test library code must
//     have a visible stop path, and goroutine closures must not capture
//     loop variables by reference.
//   - ctxflow: context.Background()/TODO() in library code needs a
//     //bsvet:rootctx annotation, and an exported function that accepts
//     a context.Context must forward it.
//   - errsentinel: in packages that declare Err* sentinels, errors on
//     exported paths must wrap with %w, and formatting an error through
//     %v/%s/Sprintf (dropping its identity) is flagged.
//
// The compiler-output gate (gate.go) complements the AST analyzers by
// compiling //bsvet:hotloop packages with -d=ssa/check_bce and -m and
// failing on bounds checks or heap escapes inside annotated functions.
//
// # Annotation grammar
//
// Five pragmas, all ordinary line comments:
//
//	//bsvet:hotloop
//	    In the doc comment of a function or method declaration. Marks the
//	    function as a hot loop: the hotloop analyzer enforces its body and
//	    the BCE gate watches its compiled form. Annotated functions may
//	    call each other across packages.
//
//	//bsvet:sealed
//	    In the doc comment of a type declaration. Marks the type as
//	    publication-immutable: epochsafe reports any store through its
//	    fields (or elements reached through its fields) outside a
//	    //bsvet:builder function. Element types of atomic.Pointer[T]
//	    fields are sealed implicitly — they are exactly the values an
//	    epoch swap publishes.
//
//	//bsvet:builder
//	    In the doc comment of a function or method declaration. Marks the
//	    function as a constructor of not-yet-published sealed values;
//	    epochsafe permits its stores. The fact crosses packages.
//
//	//bsvet:rootctx <reason>
//	    In the doc comment of a function declaration. Declares that the
//	    function legitimately mints a root context (program entry point,
//	    compatibility wrapper, detached background task); ctxflow then
//	    accepts its context.Background()/TODO() calls. The reason is
//	    mandatory.
//
//	//bsvet:ignore <analyzer> <reason>
//	    Suppresses every diagnostic the named analyzer would report on
//	    the pragma's own source line or the line directly below it (so it
//	    works both as a trailing comment and on a line of its own). The
//	    reason is mandatory; bare suppressions are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore pragmas.
	Name string
	// Doc is the one-paragraph description shown by bsvet -help.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotloopAnalyzer, AtomicFieldAnalyzer, BoundedAllocAnalyzer,
		EpochSafeAnalyzer, GoroutineLifeAnalyzer, CtxFlowAnalyzer, ErrSentinelAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("hotloop,atomicfield").
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts holds the cross-package annotation facts visible to this pass
	// — the analyzed package, its module-local dependencies, and in
	// vettool mode the facts recovered from dependency .vetx files.
	Facts *Facts

	ignores []ignoreDirective
	diags   *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an ignore pragma covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	for _, ig := range p.ignores {
		if ig.analyzer != p.Analyzer.Name {
			continue
		}
		if ig.file == position.Filename && (ig.line == position.Line || ig.line+1 == position.Line) {
			return
		}
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ignoreDirective is one parsed //bsvet:ignore comment; it suppresses
// the named analyzer on its own line and the line below.
type ignoreDirective struct {
	file     string
	line     int
	analyzer string
}

const (
	pragmaHotloop = "//bsvet:hotloop"
	pragmaIgnore  = "//bsvet:ignore"
	pragmaSealed  = "//bsvet:sealed"
	pragmaBuilder = "//bsvet:builder"
	pragmaRootctx = "//bsvet:rootctx"
)

// parseIgnores collects the ignore pragmas of a file set. Malformed
// pragmas (missing analyzer or reason) are reported as diagnostics under
// the pseudo-analyzer "bsvet" so they cannot silently suppress nothing.
func parseIgnores(fset *token.FileSet, files []*ast.File, diags *[]Diagnostic) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, pragmaIgnore) {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(strings.TrimPrefix(text, pragmaIgnore))
				if len(fields) < 2 {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "bsvet",
						Message:  "malformed //bsvet:ignore: want \"//bsvet:ignore <analyzer> <reason>\"",
					})
					continue
				}
				out = append(out, ignoreDirective{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
				})
			}
		}
	}
	return out
}

// hasPragma reports whether the declaration's doc group carries pragma.
func hasPragma(doc *ast.CommentGroup, pragma string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == pragma || strings.HasPrefix(text, pragma+" ") {
			return true
		}
	}
	return false
}

// ObjKey names a function object the way the hotloop fact tables key it:
// "pkgpath.Func" for package functions, "pkgpath.Recv.Method" for methods
// (pointer receivers stripped).
func ObjKey(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name() // builtins/universe — never annotated
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// astFuncKey is ObjKey computed syntactically from a FuncDecl, for
// annotation scans that run without type information.
func astFuncKey(pkgPath string, d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) == 1 {
		t := d.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		// Strip type parameter instantiations (generic receivers).
		if idx, ok := t.(*ast.IndexExpr); ok {
			t = idx.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkgPath + "." + id.Name + "." + d.Name.Name
		}
	}
	return pkgPath + "." + d.Name.Name
}

// RunAnalyzers applies the analyzers to every target package and returns
// the deduplicated, position-sorted diagnostics.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Build the cross-package fact table from every loaded module-local
	// package (targets and dependencies alike), then merge any externally
	// supplied facts (vettool mode).
	facts := NewFacts()
	for _, p := range pkgs {
		facts.Merge(p.Facts)
	}
	var diags []Diagnostic
	for _, p := range pkgs {
		if !p.Analyze {
			continue
		}
		ignores := parseIgnores(p.Fset, p.Files, &diags)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     p.Fset,
				Files:    p.Files,
				Pkg:      p.Types,
				Info:     p.Info,
				Facts:    facts,
				ignores:  ignores,
				diags:    &diags,
			}
			a.Run(pass)
		}
	}
	return dedupe(diags)
}

// dedupe removes duplicate findings (a package analyzed both plain and
// test-augmented reports its non-test files twice) and sorts by position.
func dedupe(diags []Diagnostic) []Diagnostic {
	seen := map[string]bool{}
	out := diags[:0]
	for _, d := range diags {
		k := d.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	return out
}
