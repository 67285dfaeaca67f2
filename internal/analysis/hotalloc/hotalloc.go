// Package hotalloc enforces the hot-path allocation budget. Functions
// annotated with a //mmdr:hotpath doc-comment directive (the extended
// iDistance query kernels, the flat-slice matrix kernels, the Subspace
// projections) are checked for constructs that allocate or are likely to:
//
//   - any call into package fmt (formatting always allocates)
//   - append to a slice declared in the function without capacity
//     (`var s []T`, `s := []T{}`, `s := make([]T, 0)`)
//   - implicit interface conversions at call boundaries (boxing)
//   - map and slice composite literals
//   - string concatenation
//   - function literals (closures generally escape), except literals passed
//     directly to pool.Run / pool.Chunks — the sanctioned fan-out primitive
//     whose one closure per batch is part of the audited budget — and
//     literals invoked immediately
//   - go statements (goroutine + closure allocation; batching belongs in
//     pool.Run / pool.Chunks)
//
// The alloc_test budgets in internal/idist pin the same paths dynamically;
// this analyzer catches the regression at compile time, before a benchmark
// has to flake. Arguments to the builtin panic are exempt: a panicking hot
// path is already off the measured path.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"mmdr/internal/analysis/framework"
)

// Analyzer is the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc:  "flags allocation-inducing constructs inside //mmdr:hotpath functions",
	Run:  run,
}

// poolPath is the worker-pool package whose Run/Chunks closures are part of
// the audited per-batch budget.
const poolPath = "mmdr/internal/pool"

func run(pass *framework.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !framework.IsHotPath(fn) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
	return nil
}

func checkHotFunc(pass *framework.Pass, fn *ast.FuncDecl) {
	exemptLits := poolClosureLiterals(pass, fn.Body)
	coldAppends := unpreallocatedSlices(pass, fn.Body)

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, x, coldAppends)
		case *ast.CompositeLit:
			t := pass.TypeOf(x)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates in hot path")
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates in hot path")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isString(pass.TypeOf(x)) {
				pass.Reportf(x.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isString(pass.TypeOf(x.Lhs[0])) {
				pass.Reportf(x.Pos(), "string concatenation allocates in hot path")
			}
		case *ast.FuncLit:
			if !exemptLits[x] && !immediatelyInvoked(fn.Body, x) {
				pass.Reportf(x.Pos(), "closure may escape and allocate in hot path; bind it once outside the hot path")
			}
		case *ast.GoStmt:
			pass.Reportf(x.Pos(), "go statement allocates in hot path; fan out through pool.Run/pool.Chunks at the batch boundary")
		}
		return true
	})
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkCall flags fmt calls, appends to unpreallocated locals, and implicit
// interface conversions of call arguments.
func checkCall(pass *framework.Pass, call *ast.CallExpr, coldAppends map[types.Object]bool) {
	// Builtins: append gets the preallocation check, panic and friends are
	// exempt from boxing (a panicking hot path is off the measured path).
	if id, ok := unparenFun(call).(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			if b.Name() == "append" {
				checkAppend(pass, call, coldAppends)
			}
			return
		}
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		// Conversion T(x): flag only conversions *to* an interface.
		if ok && types.IsInterface(tv.Type) && len(call.Args) == 1 &&
			pass.TypeOf(call.Args[0]) != nil && !types.IsInterface(pass.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(), "conversion to interface boxes its operand in hot path")
		}
		return
	}

	if fn := calleeFunc(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates in hot path", fn.Name())
		return
	}

	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	checkBoxing(pass, call, sig)
}

// checkBoxing reports call arguments implicitly converted to interface
// parameters — each such conversion can heap-allocate the operand.
func checkBoxing(pass *framework.Pass, call *ast.CallExpr, sig *types.Signature) {
	if call.Ellipsis != token.NoPos {
		return // forwarding a slice, no per-element boxing
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "argument boxes %s into interface %s in hot path", at, pt)
	}
}

func calleeFunc(pass *framework.Pass, call *ast.CallExpr) *types.Func {
	switch f := unparenFun(call).(type) {
	case *ast.Ident:
		fn, _ := pass.ObjectOf(f).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.ObjectOf(f.Sel).(*types.Func)
		return fn
	}
	return nil
}

func unparenFun(call *ast.CallExpr) ast.Expr {
	e := call.Fun
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// checkAppend flags appends whose destination is a local slice declared
// without capacity — those grow geometrically, allocating on the hot path.
// Appends to parameters, struct fields and presized locals are the caller's
// (audited) business.
func checkAppend(pass *framework.Pass, call *ast.CallExpr, coldAppends map[types.Object]bool) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return
	}
	if coldAppends[pass.ObjectOf(id)] {
		pass.Reportf(call.Pos(), "append to %s, declared without capacity, reallocates in hot path; presize it or reuse scratch", id.Name)
	}
}

// unpreallocatedSlices collects local slice variables declared with no
// backing capacity: `var s []T`, `s := []T{}`, `s := make([]T, 0)`.
func unpreallocatedSlices(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	mark := func(id *ast.Ident) {
		if obj := pass.TypesInfo.Defs[id]; obj != nil {
			if _, ok := obj.Type().Underlying().(*types.Slice); ok {
				out[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ValueSpec:
			if len(x.Values) == 0 {
				for _, name := range x.Names {
					mark(name)
				}
			}
		case *ast.AssignStmt:
			if x.Tok != token.DEFINE || len(x.Lhs) != len(x.Rhs) {
				return true
			}
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				if emptyBackedExpr(pass, x.Rhs[i]) {
					mark(id)
				}
			}
		}
		return true
	})
	return out
}

// emptyBackedExpr reports whether e creates a slice with zero capacity:
// an empty slice literal or make([]T, 0) without a capacity argument.
func emptyBackedExpr(pass *framework.Pass, e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.CompositeLit:
		t := pass.TypeOf(x)
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice && len(x.Elts) == 0
	case *ast.CallExpr:
		id, ok := x.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := pass.ObjectOf(id).(*types.Builtin); !ok || b.Name() != "make" {
			return false
		}
		if len(x.Args) != 2 {
			return false // 3-arg make carries an explicit capacity
		}
		if _, isSlice := pass.TypeOf(x).Underlying().(*types.Slice); !isSlice {
			return false
		}
		tv, ok := pass.TypesInfo.Types[x.Args[1]]
		return ok && tv.Value != nil && tv.Value.String() == "0"
	}
	return false
}

// poolClosureLiterals returns the function literals passed directly to
// pool.Run / pool.Chunks calls — the audited one-closure-per-batch cost.
func poolClosureLiterals(pass *framework.Pass, body *ast.BlockStmt) map[*ast.FuncLit]bool {
	out := make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != poolPath {
			return true
		}
		if fn.Name() != "Run" && fn.Name() != "Chunks" {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.FuncLit); ok {
				out[lit] = true
			}
		}
		return true
	})
	return out
}

// immediatelyInvoked reports whether lit appears as the callee of a call
// expression, i.e. func(){...}() — executed inline, commonly stack-kept.
func immediatelyInvoked(body *ast.BlockStmt, lit *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && call.Fun == lit {
			invoked = true
		}
		return !invoked
	})
	return invoked
}
