package analysis

// hotpathalloc — the streaming engine's allocation budget, enforced
// over the call graph. PR 7's incremental hot path promises O(1) work
// and zero heap allocation per pushed sample (the BENCH_streaming.json
// allocs/hop gate measures it; this analyzer pins it statically), and
// a flat, window-bounded allocation budget per judged hop.
//
// Two tiers:
//
//   - per-sample roots (the dsp sliding Push operators, the preprocess
//     StreamChain.Push, guard's StreamDetector.Push, and guard's window
//     gate and flag tally, which every hop runs and most live hops end
//     at): every function reachable from them through static calls must
//     not allocate at all — no append, make, new, slice/map literals,
//     closures, interface boxing, string building, goroutine spawns, or
//     fmt.
//
//   - per-hop roots (guard's judgeStreamWindow): reachable functions
//     may allocate a bounded amount per hop, but an allocation inside
//     a loop grows with the window and is flagged.
//
// The per-sample traversal stops at per-hop roots: the hop judge runs
// once every HopSamples ticks behind its own counter, which is exactly
// the boundary between the two budgets.
//
// Roots are registered two ways: the built-in list below names the
// repo's streaming entry points by their types.Func FullName (a rename
// without re-registration is itself a finding, so the list cannot
// rot), and a `//vclint:hotpath` or `//vclint:hotpath-hop` directive
// line in a function's doc comment registers additional roots — used
// by fixtures and available to future hot paths.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

type hotTier int

const (
	tierSample hotTier = iota
	tierHop
)

// hotRootList pins the repo's registered hot paths. Key: the
// types.Func FullName; value: the allocation tier.
var hotRootList = map[string]hotTier{
	"(*repro/internal/dsp.SlidingConv).Push":        tierSample,
	"(*repro/internal/dsp.SlidingMean).Push":        tierSample,
	"(*repro/internal/dsp.SlidingVariance).Push":    tierSample,
	"(*repro/internal/dsp.SlidingRMS).Push":         tierSample,
	"(*repro/internal/preprocess.StreamChain).Push": tierSample,
	"(*repro/guard.StreamDetector).Push":            tierSample,
	"(*repro/guard.streamGate).open":                tierSample,
	"repro/guard.tallyFlags":                        tierSample,
	"(*repro/guard.StreamDetector).completeHop":     tierHop,
	"(*repro/guard.Detector).judgeStreamWindow":     tierHop,
}

// Doc-comment directives registering extra roots.
const (
	hotpathDirective    = "//vclint:hotpath"
	hotpathHopDirective = "//vclint:hotpath-hop"
)

// HotPathAlloc enforces the streaming allocation budget.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "no heap allocation reachable from the per-sample streaming hot paths; per-hop judge allocations must stay out of loops",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(pass *Pass) {
	if pass.Graph == nil {
		return
	}
	sampleRoots, hopRoots := collectHotRoots(pass)
	reportMissingHotRoots(pass)
	if len(sampleRoots) == 0 && len(hopRoots) == 0 {
		return
	}

	// Per-sample tier: full closure, stopping at hop-tier roots (the
	// hop judge has its own budget, so its body is not held to zero).
	hopSet := map[*CGNode]bool{}
	for _, n := range hopRoots {
		hopSet[n] = true
	}
	sampleReach := pass.Graph.ReachableFrom(sampleRoots, func(n *CGNode) bool {
		return hopSet[n]
	})
	inSample := map[*CGNode]bool{}
	for _, r := range sampleReach {
		if r.Node.Decl == nil || hopSet[r.Node] {
			continue
		}
		inSample[r.Node] = true
		if r.Node.Pkg != pass.Pkg {
			continue // reported by the pass over the defining package
		}
		reportAllocs(pass, r.Node, tierSample, ChainTo(sampleReach, r.Node))
	}

	hopReach := pass.Graph.ReachableFrom(hopRoots, nil)
	for _, r := range hopReach {
		if r.Node.Decl == nil || r.Node.Pkg != pass.Pkg {
			continue
		}
		if inSample[r.Node] {
			continue // already held to the stricter zero-alloc budget
		}
		reportAllocs(pass, r.Node, tierHop, ChainTo(hopReach, r.Node))
	}
}

// collectHotRoots resolves the built-in root list and scans every
// loaded package for directive-registered roots.
func collectHotRoots(pass *Pass) (sample, hop []*CGNode) {
	for _, name := range sortedHotRootKeys() {
		n := pass.Graph.NodeByFullName(name)
		if n == nil {
			continue
		}
		if hotRootList[name] == tierSample {
			sample = append(sample, n)
		} else {
			hop = append(hop, n)
		}
	}
	for _, pkg := range pass.All {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				tier, ok := hotDirectiveTier(fd.Doc)
				if !ok {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				n := pass.Graph.NodeOf(fn)
				if n == nil {
					continue
				}
				if tier == tierSample {
					sample = append(sample, n)
				} else {
					hop = append(hop, n)
				}
			}
		}
	}
	return sample, hop
}

// hotDirectiveTier reads a root-registration directive from a doc
// comment, if present.
func hotDirectiveTier(doc *ast.CommentGroup) (hotTier, bool) {
	for _, c := range doc.List {
		switch {
		case c.Text == hotpathHopDirective || strings.HasPrefix(c.Text, hotpathHopDirective+" "):
			return tierHop, true
		case c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" "):
			return tierSample, true
		}
	}
	return tierSample, false
}

// sortedHotRootKeys returns the built-in root names in stable order.
func sortedHotRootKeys() []string {
	keys := make([]string, 0, len(hotRootList))
	for k := range hotRootList {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportMissingHotRoots flags registered roots whose defining package
// is under analysis but whose function no longer resolves — the
// rename-without-re-registration rot case.
func reportMissingHotRoots(pass *Pass) {
	for _, name := range sortedHotRootKeys() {
		if hotRootPkgPath(name) != pass.Pkg.ImportPath {
			continue
		}
		if pass.Graph.NodeByFullName(name) == nil && len(pass.Pkg.Files) > 0 {
			pass.Reportf(pass.Pkg.Files[0].Package,
				"registered hot-path root %s not found in this package; update hotRootList (internal/analysis/hotpathalloc.go) for the renamed function", name)
		}
	}
}

// hotRootPkgPath extracts the import path from a FullName like
// "(*repro/guard.StreamDetector).Push" or "repro/guard.Train".
func hotRootPkgPath(full string) string {
	s := full
	if strings.HasPrefix(s, "(") {
		s = strings.TrimPrefix(s, "(")
		s = strings.TrimPrefix(s, "*")
		if i := strings.Index(s, ")"); i >= 0 {
			s = s[:i]
		}
	}
	if i := strings.LastIndex(s, "."); i >= 0 {
		s = s[:i]
	}
	return s
}

// reportAllocs walks one hot function's body (including nested
// closures, which execute on the same path when invoked inline) and
// flags allocation constructs per the tier's budget.
func reportAllocs(pass *Pass, n *CGNode, tier hotTier, chain string) {
	body := n.Decl.Body
	if body == nil {
		return
	}
	info := n.Pkg.Info
	var walk func(node ast.Node, loopDepth int)
	walk = func(node ast.Node, loopDepth int) {
		if node == nil {
			return
		}
		switch s := node.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			for _, child := range childNodes(s) {
				walk(child, loopDepth+1)
			}
			return
		case *ast.FuncLit:
			if tier == tierSample {
				reportAlloc(pass, tier, chain, s.Pos(), "closure literal", loopDepth)
			}
			for _, child := range childNodes(s) {
				walk(child, loopDepth)
			}
			return
		}
		if kind, pos, ok := allocKind(info, node); ok {
			reportAlloc(pass, tier, chain, pos, kind, loopDepth)
		}
		for _, child := range childNodes(node) {
			walk(child, loopDepth)
		}
	}
	walk(body, 0)
}

// reportAlloc applies the tier budget: per-sample flags everything,
// per-hop flags only loop-carried allocations.
func reportAlloc(pass *Pass, tier hotTier, chain string, pos token.Pos, kind string, loopDepth int) {
	if tier == tierHop && loopDepth == 0 {
		return
	}
	where := "per-sample streaming hot path"
	advice := "the per-sample budget is zero allocation: preallocate in the constructor or move the work off the Push path"
	if tier == tierHop {
		where = "per-hop judge path, inside a loop"
		advice = "a loop-carried allocation scales with the window: hoist the buffer out of the loop, or suppress with the bound that keeps allocs/hop flat"
	}
	pass.Reportf(pos, "%s on the %s (%s); %s", kind, where, chain, advice)
}

// childNodes returns the direct AST children of n in source order.
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}

// allocKind classifies one AST node as a heap-allocation construct.
func allocKind(info *types.Info, node ast.Node) (kind string, pos token.Pos, ok bool) {
	switch e := node.(type) {
	case *ast.CallExpr:
		if id, isID := ast.Unparen(e.Fun).(*ast.Ident); isID && isBuiltin(info, id) {
			switch id.Name {
			case "append":
				return "growing append", e.Pos(), true
			case "make":
				return "make", e.Pos(), true
			case "new":
				return "new", e.Pos(), true
			}
		}
		if fn := calleePkgFunc(info, e, "fmt"); fn != "" {
			return "fmt." + fn + " call", e.Pos(), true
		}
		if kind, ok := conversionAlloc(info, e); ok {
			return kind, e.Pos(), true
		}
		if kind, ok := boxingAlloc(info, e); ok {
			return kind, e.Pos(), true
		}
	case *ast.CompositeLit:
		if info == nil {
			return "", token.NoPos, false
		}
		t := info.TypeOf(e)
		if t == nil {
			return "", token.NoPos, false
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			return "slice literal", e.Pos(), true
		case *types.Map:
			return "map literal", e.Pos(), true
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, isLit := ast.Unparen(e.X).(*ast.CompositeLit); isLit {
				return "&composite literal (escapes to the heap)", e.Pos(), true
			}
		}
	case *ast.BinaryExpr:
		if e.Op == token.ADD && info != nil {
			if t := info.TypeOf(e); t != nil {
				if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
					return "string concatenation", e.Pos(), true
				}
			}
		}
	case *ast.GoStmt:
		return "goroutine spawn", e.Pos(), true
	}
	return "", token.NoPos, false
}

// conversionAlloc flags string<->byte/rune-slice conversions, which
// copy their operand.
func conversionAlloc(info *types.Info, call *ast.CallExpr) (string, bool) {
	if info == nil || len(call.Args) != 1 {
		return "", false
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return "", false
	}
	dst := tv.Type.Underlying()
	src := info.TypeOf(call.Args[0])
	if src == nil {
		return "", false
	}
	srcU := src.Underlying()
	if _, isSlice := dst.(*types.Slice); isSlice {
		if b, isBasic := srcU.(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
			return "string-to-slice conversion", true
		}
	}
	if b, isBasic := dst.(*types.Basic); isBasic && b.Info()&types.IsString != 0 {
		if _, isSlice := srcU.(*types.Slice); isSlice {
			return "slice-to-string conversion", true
		}
	}
	return "", false
}

// boxingAlloc flags non-interface values passed where the callee takes
// an interface parameter — the classic hidden allocation. Constant
// arguments are exempt (the compiler materializes them in static
// data), as is panic: it is the abnormal exit, not hot-path work.
func boxingAlloc(info *types.Info, call *ast.CallExpr) (string, bool) {
	if info == nil {
		return "", false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && isBuiltin(info, id) {
		return "", false
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return "", false // conversion, handled by conversionAlloc
	}
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return "", false
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return "", false
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				return "", false
			}
			slice, isSlice := params.At(params.Len() - 1).Type().(*types.Slice)
			if !isSlice {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, haveTV := info.Types[arg]
		if !haveTV || atv.Type == nil || atv.Value != nil {
			continue // unresolved or constant: no runtime allocation
		}
		at := atv.Type
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		if b, isBasic := at.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		return "interface boxing of an argument", true
	}
	return "", false
}

// isBuiltin reports whether id resolves to a predeclared function (or
// has no resolution at all — the syntax-only degradation for fixture
// packages without type info).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	if info == nil {
		return true
	}
	obj := info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// calleePkgFunc returns the function name when call is pkgPath.Fn.
func calleePkgFunc(info *types.Info, call *ast.CallExpr, pkgPath string) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if info != nil {
		if pn, ok := info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == pkgPath {
				return sel.Sel.Name
			}
			return ""
		}
		if info.Uses[id] != nil {
			return "" // resolved to something that is not a package
		}
	}
	base := pkgPath
	if i := strings.LastIndex(base, "/"); i >= 0 {
		base = base[i+1:]
	}
	if id.Name == base {
		return sel.Sel.Name
	}
	return ""
}
