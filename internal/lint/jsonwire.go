package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"regexp"
	"strconv"
	"strings"
)

// JSONWire pins the HTTP and CLI wire formats: every struct that reaches an
// encoding/json encoder from internal/server or internal/cli must tag each
// exported field with an explicit snake_case json name, so a rename or an
// added field can never silently change the wire format to Go's default
// CamelCase.
//
// internal/ingest is in scope too: its Stats type carries the wire names of
// /v1/statsz's ingest block, which the server embeds.
//
// Wire structs are found by seeding from (a) arguments of encoding/json
// calls (Marshal, Unmarshal, Encode, Decode, ...) and (b) any struct
// declaring at least one json-tagged field, then closing transitively over
// field types declared in the same package. Structs never serialized
// (configuration, internal state) are deliberately out of scope — tags on
// them would promise a wire format that does not exist.
//
// The analyzer also pins the error envelope: HTTP handlers must put every
// body on the wire through the shared helpers — writeJSON, writeError (which
// calls it), and writeRaw for a 200 body a handler encoded itself into a
// pooled buffer — so it flags net/http.Error calls, encoding/json Encoders
// attached straight to an http.ResponseWriter outside writeJSON, and Write
// calls on an http.ResponseWriter outside writeRaw: all three are how a
// handler would silently ship a body that is not the envelope, or an error
// that is not {"error": ..., "reason": ...}.
var JSONWire = &Analyzer{
	Name: "jsonwire",
	Doc:  "requires explicit snake_case json tags on structs serialized by server, cli, declog, and ingest, and the shared writeJSON/writeError/writeRaw helpers in handlers",
	Run:  runJSONWire,
}

// snakeCaseName matches an explicit lowercase snake_case json field name.
var snakeCaseName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

func runJSONWire(pass *Pass) error {
	if !inJSONWireScope(pass.Path) {
		return nil
	}

	// Collect every struct type declared in this package.
	structs := make(map[types.Object]*ast.StructType)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(ts.Name); obj != nil {
				structs[obj] = st
			}
			return true
		})
	}

	wire := make(map[types.Object]bool)
	var mark func(t types.Type)
	mark = func(t types.Type) {
		switch t := t.(type) {
		case *types.Pointer:
			mark(t.Elem())
		case *types.Slice:
			mark(t.Elem())
		case *types.Array:
			mark(t.Elem())
		case *types.Map:
			mark(t.Elem())
		case *types.Named:
			obj := t.Obj()
			if _, local := structs[obj]; !local || wire[obj] {
				return
			}
			wire[obj] = true
			// Close over the field types.
			if st, ok := t.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					mark(st.Field(i).Type())
				}
			}
		case *types.Alias:
			mark(types.Unalias(t))
		}
	}

	// Seed (a): arguments of encoding/json calls.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if funcPkgPath(fn) != "encoding/json" {
				return true
			}
			for _, arg := range call.Args {
				if t := pass.TypesInfo.TypeOf(arg); t != nil {
					mark(t)
				}
			}
			return true
		})
	}

	// Seed (b): any struct already declaring a json tag.
	for obj, st := range structs {
		for _, field := range st.Fields.List {
			if jsonTag(field) != "" {
				mark(obj.Type())
				break
			}
		}
	}

	// Check every wire struct's exported fields.
	for obj, st := range structs {
		if !wire[obj] {
			continue
		}
		for _, field := range st.Fields.List {
			checkWireField(pass, obj.Name(), field)
		}
	}

	checkHandRolledWrites(pass)
	return nil
}

// checkHandRolledWrites flags response writes that bypass the shared
// helpers: net/http.Error (bare text/plain body), json.NewEncoder over an
// http.ResponseWriter outside writeJSON (an envelope-free JSON body), and
// Write on an http.ResponseWriter outside writeRaw (hand-encoded bytes with
// whatever status and content type the caller remembered to set). A type's
// own Write method is exempt: that is a ResponseWriter wrapper forwarding,
// not a handler writing.
func checkHandRolledWrites(pass *Pass) {
	iface := respWriterIface(pass.Pkg)
	if iface == nil {
		return // package never imports net/http; nothing to hand-roll
	}
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl) {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			switch {
			case funcPkgPath(fn) == "net/http" && fn.Name() == "Error":
				pass.Reportf(call.Pos(), "http.Error writes a bare text body outside the JSON error envelope; answer through writeError so every error is {\"error\": ..., \"reason\": ...}")
			case funcPkgPath(fn) == "encoding/json" && fn.Name() == "NewEncoder" && len(call.Args) == 1 && decl.Name.Name != "writeJSON":
				if t := pass.TypesInfo.TypeOf(call.Args[0]); t != nil && types.Implements(t, iface) {
					pass.Reportf(call.Pos(), "json.NewEncoder over an http.ResponseWriter bypasses writeJSON; handlers must put bodies on the wire through the shared helpers")
				}
			case fn != nil && fn.Name() == "Write" && decl.Name.Name != "writeRaw" && !(decl.Recv != nil && decl.Name.Name == "Write"):
				sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if t := pass.TypesInfo.TypeOf(sel.X); t != nil && types.Implements(t, iface) {
					pass.Reportf(call.Pos(), "Write on an http.ResponseWriter bypasses the shared helpers; hand-encoded bodies go on the wire through writeRaw")
				}
			}
			return true
		})
	})
}

// respWriterIface resolves the net/http.ResponseWriter interface from the
// package's imports; nil when the package never touches net/http.
func respWriterIface(pkg *types.Package) *types.Interface {
	if pkg == nil {
		return nil
	}
	for _, imp := range pkg.Imports() {
		if imp.Path() != "net/http" {
			continue
		}
		if obj, ok := imp.Scope().Lookup("ResponseWriter").(*types.TypeName); ok {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				return iface
			}
		}
	}
	return nil
}

// jsonTag extracts the raw `json:"..."` tag value of a field, or "".
func jsonTag(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	unquoted, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return ""
	}
	return reflect.StructTag(unquoted).Get("json")
}

// checkWireField validates one field of a wire struct.
func checkWireField(pass *Pass, structName string, field *ast.Field) {
	// Embedded fields flatten into the parent; their own declaration is
	// checked where the embedded type is defined.
	if len(field.Names) == 0 {
		return
	}
	tag := jsonTag(field)
	for _, name := range field.Names {
		if !name.IsExported() {
			continue
		}
		if tag == "" {
			pass.Reportf(name.Pos(), "field %s.%s is serialized by encoding/json but has no json tag: the wire name would silently track the Go identifier; tag it with an explicit snake_case name (or json:\"-\")", structName, name.Name)
			continue
		}
		wireName, _, _ := strings.Cut(tag, ",")
		if wireName == "-" {
			continue
		}
		if !snakeCaseName.MatchString(wireName) {
			pass.Reportf(name.Pos(), "field %s.%s has json name %q: wire names must be explicit snake_case so the format cannot drift", structName, name.Name, wireName)
		}
	}
}
