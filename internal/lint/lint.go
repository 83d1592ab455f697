// Package lint implements the memelint analyzer suite: custom static
// analyzers that mechanically enforce the engine's three headline
// invariants — bitwise-deterministic pipeline output, goroutine-leak-free
// cancellation, and zero allocations on the pHash hot path — plus the
// stability of the HTTP/CLI JSON wire format.
//
// The suite is modeled on golang.org/x/tools/go/analysis (an Analyzer with
// a Run function over a typed Pass) but is built entirely on the standard
// library's go/ast, go/types, and go/importer so the repository keeps its
// zero-dependency contract. cmd/memelint drives the analyzers standalone
// over `go list` output or as a `go vet -vettool`.
//
// Analyzers:
//
//   - detorder: no map iteration order or wall-clock/math-rand input may
//     influence output in the deterministic build/query packages.
//   - ctxflow: concurrency on the query path must flow through the
//     cancellable ...Ctx primitives of internal/parallel; no naked go
//     statements outside internal/parallel and cmd/.
//   - noalloc: functions annotated //memes:noalloc must avoid constructs
//     that force heap allocations.
//   - jsonwire: structs serialized by internal/server, internal/cli, and
//     internal/declog must carry explicit snake_case json tags, and HTTP
//     handlers must answer through the shared writeJSON/writeError/writeRaw
//     helpers instead of hand-rolling http.Error, direct ResponseWriter
//     encoders or raw ResponseWriter writes.
//
// Escape hatches are explicit, greppable comment directives, each carrying
// a reason: //memes:nondet (function-level: sanctioned wall-clock/rand use),
// //memes:goroutine (statement-level: sanctioned go statement),
// //memes:detorder (statement-level: sanctioned map range), and
// //memes:noalloc (function-level: opts the function INTO alloc checking).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a Pass and reports findings
// through it; a non-nil error aborts the whole memelint run (reserved for
// analyzer bugs, not findings).
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Pass holds one type-checked package being analyzed and collects the
// diagnostics the analyzer reports against it.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test source files.
	Files []*ast.File
	// Path is the package's import path as the build system names it; all
	// scope gating matches on suffixes of this path so testdata fixtures
	// under fake module paths gate identically to the real tree.
	Path      string
	Pkg       *types.Package
	TypesInfo *types.Info

	diagnostics []Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding: which analyzer fired, where, and why.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the canonical file:line:col form used by text output and
// the vettool protocol.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{DetOrder, CtxFlow, NoAlloc, JSONWire}
}

// Run executes every analyzer in as against one loaded package and returns
// the findings sorted by position.
func Run(as []*Analyzer, fset *token.FileSet, files []*ast.File, path string, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range as {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Path:      path,
			Pkg:       pkg,
			TypesInfo: info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: analyzer %s on %s: %w", a.Name, path, err)
		}
		out = append(out, pass.diagnostics...)
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
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// --- comment directives ------------------------------------------------------

// directivePrefix introduces every memelint escape-hatch comment.
const directivePrefix = "//memes:"

// directive is one parsed //memes:<name> <reason> comment.
type directive struct {
	name   string
	reason string
}

// parseDirective parses a single comment; ok is false for ordinary comments.
func parseDirective(text string) (directive, bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name, reason, _ := strings.Cut(rest, " ")
	return directive{name: name, reason: strings.TrimSpace(reason)}, true
}

// directiveIndex records, per file line, the directives whose comment ends
// on that line, so statement-level annotations ("the line above") resolve in
// O(1).
type directiveIndex struct {
	fset   *token.FileSet
	byLine map[string]map[int][]directive // filename -> line -> directives
}

// indexDirectives scans every comment in the files.
func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{fset: fset, byLine: make(map[string]map[int][]directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.End())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]directive)
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return idx
}

// at reports whether a directive with the given name annotates the
// statement starting at pos: on the same line or on the line directly above.
func (idx *directiveIndex) at(pos token.Pos, name string) bool {
	p := idx.fset.Position(pos)
	lines := idx.byLine[p.Filename]
	if lines == nil {
		return false
	}
	for _, d := range lines[p.Line] {
		if d.name == name {
			return true
		}
	}
	for _, d := range lines[p.Line-1] {
		if d.name == name {
			return true
		}
	}
	return false
}

// funcHasDirective reports whether fn's doc comment carries the directive.
func funcHasDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if d, ok := parseDirective(c.Text); ok && d.name == name {
			return true
		}
	}
	return false
}

// --- package scope gating ----------------------------------------------------

// pathMatches reports whether the import path ends with the given suffix on
// a path-segment boundary, so "internal/pipeline" matches both the real
// module path and testdata fixture paths but never a mid-segment substring.
func pathMatches(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// deterministicScopes are the build/query packages whose output the repo
// guarantees to be a pure function of the input (see README "Determinism").
var deterministicScopes = []string{
	"internal/pipeline",
	"internal/cluster",
	"internal/index",
	"internal/ingest",
	"internal/faults",
	"internal/phash",
	"memes", // the module root package
}

// inDeterministicScope gates detorder.
func inDeterministicScope(path string) bool {
	for _, s := range deterministicScopes {
		if pathMatches(path, s) {
			return true
		}
	}
	return false
}

// inCtxFlowScope gates ctxflow: everything except internal/parallel itself
// (the only package allowed to spawn raw goroutines for its worker pools)
// and commands.
func inCtxFlowScope(path string) bool {
	return !pathMatches(path, "internal/parallel") && !strings.Contains(path, "/cmd/")
}

// jsonWireScopes are the packages whose structs define the HTTP and CLI
// wire formats. internal/ingest is one because its Stats type declares the
// wire names of /v1/statsz's ingest block.
var jsonWireScopes = []string{
	"internal/server",
	"internal/cli",
	"internal/declog",
	"internal/ingest",
}

// inJSONWireScope gates jsonwire.
func inJSONWireScope(path string) bool {
	for _, s := range jsonWireScopes {
		if pathMatches(path, s) {
			return true
		}
	}
	return false
}

// --- shared type helpers -----------------------------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes, or
// nil for builtins, conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the defining package path of fn, or "" for builtins.
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isMapType reports whether t is (after unaliasing and unwrapping named
// types) a map.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// enclosingFuncs pairs each top-level function declaration with a visitor
// over the nodes inside it, giving analyzers the enclosing declaration for
// annotation lookups. fn is also called for methods; function literals are
// visited as part of their enclosing declaration.
func enclosingFuncs(files []*ast.File, visit func(decl *ast.FuncDecl)) {
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}
