package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces the cancellation contract of the query path: concurrency
// must flow through the cancellable ...Ctx primitives of internal/parallel
// so no goroutine can outlive a cancelled request.
//
//   - Naked go statements are violations everywhere except internal/parallel
//     (the worker-pool implementation) and cmd/. A deliberately
//     owned goroutine (joined on shutdown) is annotated
//     //memes:goroutine <reason>.
//   - Calls to the bare parallel.For/Map/MapErr/MapChunks wrappers are
//     violations: callers either hold a context (thread it through the Ctx
//     variant) or are themselves context-free wrappers (delegate to their
//     own ...Ctx variant with context.Background(), which keeps the bare
//     parallel call count at exactly one per primitive, inside
//     internal/parallel).
//   - Passing context.Background()/context.TODO() to a parallel ...Ctx
//     primitive from a function that already has a context parameter drops
//     cancellation on the floor and is a violation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "requires query-path concurrency to use cancellable internal/parallel Ctx primitives",
	Run:  runCtxFlow,
}

// bareParallelFuncs are the context-free internal/parallel entry points.
var bareParallelFuncs = map[string]bool{
	"For": true, "Map": true, "MapErr": true, "MapChunks": true,
}

func runCtxFlow(pass *Pass) error {
	if !inCtxFlowScope(pass.Path) {
		return nil
	}
	dirs := indexDirectives(pass.Fset, pass.Files)
	enclosingFuncs(pass.Files, func(decl *ast.FuncDecl) {
		hasCtx := funcHasCtxParam(pass, decl)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !dirs.at(n.Pos(), "goroutine") {
					pass.Reportf(n.Pos(), "naked go statement outside internal/parallel: goroutines on the query path must run under a parallel.*Ctx primitive (or carry //memes:goroutine <reason> if ownership is joined elsewhere)")
				}
			case *ast.CallExpr:
				checkParallelCall(pass, n, hasCtx)
			}
			return true
		})
	})
	return nil
}

// checkParallelCall vets one call for the two parallel-package violations.
func checkParallelCall(pass *Pass, call *ast.CallExpr, hasCtx bool) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil || !pathMatches(funcPkgPath(fn), "internal/parallel") {
		return
	}
	name := fn.Name()
	if bareParallelFuncs[name] {
		pass.Reportf(call.Pos(), "parallel.%s spawns uncancellable goroutines: use parallel.%sCtx and thread a context (context-free exported wrappers belong next to their ...Ctx variant)", name, name)
		return
	}
	if strings.HasSuffix(name, "Ctx") && hasCtx && len(call.Args) > 0 {
		if isContextBackgroundOrTODO(pass, call.Args[0]) {
			pass.Reportf(call.Args[0].Pos(), "parallel.%s called with context.Background/TODO while the enclosing function has a context parameter: thread the caller's context", name)
		}
	}
}

// funcHasCtxParam reports whether the declaration has a context.Context
// parameter (including the receiver position being irrelevant here).
func funcHasCtxParam(pass *Pass, decl *ast.FuncDecl) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		if isContextType(pass.TypesInfo.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isContextBackgroundOrTODO reports whether the expression is a direct
// context.Background() or context.TODO() call.
func isContextBackgroundOrTODO(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := calleeFunc(pass.TypesInfo, call)
	return fn != nil && funcPkgPath(fn) == "context" && (fn.Name() == "Background" || fn.Name() == "TODO")
}
