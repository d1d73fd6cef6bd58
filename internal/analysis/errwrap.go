package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errWrapSentinelScope lists the packages whose sentinel errors must be
// rooted at the typed overload families, so errors.Is gates written
// against the roots keep matching as new causes are added.
var errWrapSentinelScope = []string{"internal/admission", "guard"}

// errWrapRoots names the sentinel family roots that may be declared
// with a bare errors.New. Every other package-level Err* sentinel in
// the scoped packages must wrap a root (or another sentinel) with %w.
var errWrapRoots = map[string]bool{
	// ErrShed roots the load-shedding family (queue full, evicted,
	// deadline, throttled, draining).
	"ErrShed": true,
}

// ErrWrap enforces two error-chain invariants. Everywhere: a
// fmt.Errorf whose arguments include an error must wrap it with %w so
// errors.Is/errors.As keep seeing through the chain. In the admission
// and guard packages: a package-level Err* sentinel must either be an
// approved family root or wrap one, keeping the typed ErrShed-rooted
// hierarchy from the overload layer closed.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "fmt.Errorf with an error argument must use %w; admission/guard sentinels must be rooted at the typed error families",
	Run:  runErrWrap,
}

func runErrWrap(pass *Pass) {
	runErrWrapVerbs(pass)
	if pass.underScope(errWrapSentinelScope...) {
		runErrWrapSentinels(pass)
	}
}

// runErrWrapVerbs flags fmt.Errorf calls that format an error-typed
// argument without a %w verb.
func runErrWrapVerbs(pass *Pass) {
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pass.pkgFuncCall(call, "fmt")
			if !ok || name != "Errorf" || len(call.Args) < 2 {
				return true
			}
			format, ok := pass.constString(call.Args[0])
			if !ok || strings.Contains(format, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				t := pass.TypeOf(arg)
				if t == nil || !types.Implements(t, errType) {
					continue
				}
				pass.Reportf(arg.Pos(), "error argument formatted without %%w; the cause disappears from errors.Is/errors.As chains")
			}
			return true
		})
	}
}

// runErrWrapSentinels checks package-level Err* declarations.
func runErrWrapSentinels(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Err") || i >= len(vs.Values) {
						continue
					}
					checkSentinel(pass, name, vs.Values[i])
				}
			}
		}
	}
}

func checkSentinel(pass *Pass, name *ast.Ident, value ast.Expr) {
	call, ok := value.(*ast.CallExpr)
	if !ok {
		return
	}
	if fn, ok := pass.pkgFuncCall(call, "errors"); ok && fn == "New" {
		if errWrapRoots[name.Name] {
			return
		}
		pass.Reportf(name.Pos(), "sentinel %s is a new error root; wrap a typed family root (e.g. admission.ErrShed) with fmt.Errorf(%q, ...) or add it to the approved roots", name.Name, "%w: ...")
		return
	}
	if fn, ok := pass.pkgFuncCall(call, "fmt"); ok && fn == "Errorf" && len(call.Args) > 0 {
		format, haveFmt := pass.constString(call.Args[0])
		if haveFmt && !strings.Contains(format, "%w") {
			pass.Reportf(name.Pos(), "sentinel %s does not wrap its family root with %%w", name.Name)
			return
		}
		for _, arg := range call.Args[1:] {
			if refersToSentinel(arg) {
				return
			}
		}
		pass.Reportf(name.Pos(), "sentinel %s wraps no Err* family member; root it at a typed family", name.Name)
	}
}

// refersToSentinel reports whether the expression mentions an Err*
// identifier (local or package-qualified).
func refersToSentinel(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return strings.HasPrefix(v.Name, "Err")
	case *ast.SelectorExpr:
		return strings.HasPrefix(v.Sel.Name, "Err")
	}
	return false
}
