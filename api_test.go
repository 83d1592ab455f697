package memes

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite api/memes.txt from the root package and cmd/ flag sets")

const apiFile = "api/memes.txt"

// TestAPIFile regenerates api/memes.txt — one line per exported identifier
// of the root package, in the style of $(go env GOROOT)/api/go1.*.txt, plus
// one line per flag each cmd/ defines — and requires it to equal the
// committed file, so an added or removed export or flag shows up as a diff
// line. Rewrite it with: go test -run TestAPIFile . -update
func TestAPIFile(t *testing.T) {
	lines, err := rootAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	flags, err := cmdFlags("cmd")
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, flags...)
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateAPI {
		if err := os.MkdirAll(filepath.Dir(apiFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiFile)
	if err != nil {
		t.Fatalf("%v (create it with: go test -run TestAPIFile . -update)", err)
	}
	if got != string(want) {
		t.Errorf("the API differs from %s (rewrite it with: go test -run TestAPIFile . -update):\n%s",
			apiFile, lineDiff(strings.Split(string(want), "\n"), strings.Split(got, "\n")))
	}
}

// lineDiff lists the lines only in want as "-" and only in got as "+".
func lineDiff(want, got []string) string {
	in := func(set []string) map[string]bool {
		m := make(map[string]bool, len(set))
		for _, s := range set {
			m[s] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, s := range want {
		if s != "" && !g[s] {
			fmt.Fprintf(&b, "-%s\n", s)
		}
	}
	for _, s := range got {
		if s != "" && !w[s] {
			fmt.Fprintf(&b, "+%s\n", s)
		}
	}
	return b.String()
}

// rootAPI parses the non-test files of the package in dir and returns one
// "pkg memes, ..." line per exported const, var, type, struct field,
// interface method, function and method.
func rootAPI(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	pkg, ok := pkgs["memes"]
	if !ok {
		return nil, fmt.Errorf("no package memes in %s", dir)
	}
	expr := func(e ast.Expr) string {
		var b bytes.Buffer
		printer.Fprint(&b, fset, e)
		return b.String()
	}
	var lines []string
	add := func(format string, args ...any) {
		lines = append(lines, "pkg memes, "+fmt.Sprintf(format, args...))
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				sig := d.Name.Name + signature(expr, d.Type)
				if d.Recv == nil {
					add("func %s", sig)
					continue
				}
				recv := expr(d.Recv.List[0].Type)
				if !ast.IsExported(strings.TrimPrefix(recv, "*")) {
					continue
				}
				add("method (%s) %s", recv, sig)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for i, name := range s.Names {
							if !name.IsExported() {
								continue
							}
							switch {
							case s.Type != nil:
								add("%s %s %s", d.Tok, name.Name, expr(s.Type))
							case i < len(s.Values):
								add("%s %s = %s", d.Tok, name.Name, expr(s.Values[i]))
							}
						}
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							typeLines(add, expr, s)
						}
					}
				}
			}
		}
	}
	return lines, nil
}

// typeLines adds the lines of one exported type declaration: the type
// itself, then each exported field or interface method.
func typeLines(add func(string, ...any), expr func(ast.Expr) string, s *ast.TypeSpec) {
	name := s.Name.Name
	if s.Assign.IsValid() {
		add("type %s = %s", name, expr(s.Type))
		return
	}
	switch t := s.Type.(type) {
	case *ast.StructType:
		add("type %s struct", name)
		for _, f := range t.Fields.List {
			for _, n := range f.Names {
				if n.IsExported() {
					add("type %s struct, %s %s", name, n.Name, expr(f.Type))
				}
			}
			if len(f.Names) == 0 {
				add("type %s struct, embedded %s", name, expr(f.Type))
			}
		}
	case *ast.InterfaceType:
		add("type %s interface", name)
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				if n.IsExported() {
					add("type %s interface, %s%s", name, n.Name, signature(expr, m.Type.(*ast.FuncType)))
				}
			}
		}
	default:
		add("type %s %s", name, expr(s.Type))
	}
}

// signature renders a function type without parameter names, the way the
// toolchain's API files do: "(int, string) (bool, error)".
func signature(expr func(ast.Expr) string, ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		if fl == nil {
			return nil
		}
		var out []string
		for _, f := range fl.List {
			n := max(len(f.Names), 1)
			for range n {
				out = append(out, expr(f.Type))
			}
		}
		return out
	}
	s := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// flagKinds maps a flag-defining method of package flag (or of a
// *flag.FlagSet) to the type of the flag it defines.
var flagKinds = map[string]string{
	"Bool": "bool", "Duration": "time.Duration", "Float64": "float64",
	"Int": "int", "Int64": "int64", "String": "string", "Uint": "uint", "Uint64": "uint64",
}

// cmdFlags returns one "cmd <name>, flag <flag> <type>" line per flag that a
// command under dir defines with a string-literal name.
func cmdFlags(dir string) ([]string, error) {
	mains, err := filepath.Glob(filepath.Join(dir, "*", "main.go"))
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, path := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return nil, err
		}
		cmd := filepath.Base(filepath.Dir(path))
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 3 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, isIdent := sel.X.(*ast.Ident); !isIdent {
				return true
			}
			kind, ok := flagKinds[sel.Sel.Name]
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			lines = append(lines, fmt.Sprintf("cmd %s, flag %s %s", cmd, name, kind))
			return true
		})
	}
	return lines, nil
}
